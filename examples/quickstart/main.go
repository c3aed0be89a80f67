// Quickstart: encode a short synthetic clip with the built-in MPEG-2
// encoder, decode it serially, then decode it on a simulated 1-2-(2,2)
// tiled display wall and verify the two outputs are bit-exact.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"tiledwall/internal/encoder"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/service"
	"tiledwall/internal/video"
)

func main() {
	// 1. Render 24 frames of a synthetic scene and encode them.
	const w, h, frames = 352, 288, 24
	src := video.NewSource(video.SceneFilm, w, h, 42)
	enc, err := encoder.New(encoder.Config{
		Width: w, Height: h,
		GOPSize: 12, BSpacing: 3,
		TargetBPP: 0.5,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if err := enc.Push(src.Frame(i)); err != nil {
			log.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		log.Fatal(err)
	}
	stream := enc.Bytes()
	fmt.Printf("encoded %d frames: %d bytes (%.3f bit/pixel)\n",
		frames, len(stream), float64(len(stream)*8)/float64(frames*w*h))

	// 2. Serial reference decode.
	dec, err := mpeg2.NewDecoder(stream)
	if err != nil {
		log.Fatal(err)
	}
	ref, err := dec.DecodeAll()
	if err != nil {
		log.Fatal(err)
	}
	psnr, _ := video.PSNR(src.Frame(0), ref[0].Buf)
	fmt.Printf("serial decode: %d pictures, first-frame PSNR %.1f dB\n", len(ref), psnr)

	// 3. Parallel decode on a 1-2-(2,2) hierarchy: one root splitter, two
	// second-level splitters, four tile decoders — 7 simulated PCs.
	res, err := service.Run(stream, service.Config{K: 2, M: 2, N: 2, CollectFrames: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel decode on %d PCs: %.1f fps, %.1f Mpixel/s\n",
		res.Config.NumNodes(), res.Throughput.FPS(), res.Throughput.PixelRate())

	// 4. Verify bit-exactness.
	for i := range ref {
		if !video.Equal(ref[i].Buf, res.Frames[i]) {
			log.Fatalf("frame %d differs between serial and parallel decoders", i)
		}
	}
	fmt.Printf("verified: all %d frames bit-exact between serial and parallel paths\n", len(ref))
}
