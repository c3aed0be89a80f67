package system

import (
	"testing"

	"tiledwall/internal/encoder"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/service"
	"tiledwall/internal/video"
)

// makeClosedStream encodes a clip with self-contained GOPs (required by the
// GOP-level baseline).
func makeClosedStream(t testing.TB, kind video.SceneKind, w, h, frames int) []byte {
	t.Helper()
	cfg := encoder.Config{Width: w, Height: h, GOPSize: 6, BSpacing: 3, InitialQScale: 6, ClosedGOP: true}
	src := video.NewSource(kind, w, h, 11)
	e, err := encoder.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if err := e.Push(src.Frame(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return e.Bytes()
}

func checkAgainstSerial(t *testing.T, stream []byte, frames []*mpeg2.PixelBuf) {
	t.Helper()
	ref := serialFrames(t, stream)
	if len(frames) != len(ref) {
		t.Fatalf("baseline produced %d frames, serial %d", len(frames), len(ref))
	}
	for i := range ref {
		if !video.Equal(ref[i].Buf, frames[i]) {
			l, c := video.MaxAbsDiff(ref[i].Buf, frames[i])
			t.Fatalf("frame %d differs from serial (max luma %d chroma %d)", i, l, c)
		}
	}
}

func TestGOPLevelBaseline(t *testing.T) {
	stream := makeClosedStream(t, video.SceneFilm, 192, 128, 18)
	res, err := RunBaseline(stream, BaselineConfig{Level: LevelGOP, M: 2, N: 2, CollectFrames: true})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSerial(t, stream, res.Frames)
	if res.InterDecoderBytes != 0 {
		t.Errorf("GOP level should have no inter-decoder traffic, got %d", res.InterDecoderBytes)
	}
	if res.RedistributionBytes == 0 {
		t.Error("GOP level must redistribute pixels")
	}
	// Redistribution ships (mn-1)/mn of every picture (Table 1 "very high").
	perPic := float64(res.RedistributionBytes) / float64(res.Throughput.Pictures)
	frameBytes := float64(192*128) * 1.5
	if perPic < frameBytes*0.5 {
		t.Errorf("redistribution %.0f bytes/picture implausibly low (frame is %.0f)", perPic, frameBytes)
	}
}

func TestPictureLevelBaseline(t *testing.T) {
	// Picture-level works with ordinary (open-GOP) streams.
	stream := makeStream(t, video.SceneFilm, 192, 128, 12)
	res, err := RunBaseline(stream, BaselineConfig{Level: LevelPicture, M: 2, N: 2, CollectFrames: true})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSerial(t, stream, res.Frames)
	if res.InterDecoderBytes == 0 {
		t.Error("picture level must ship reference frames between decoders")
	}
	// Inter-decoder traffic is whole frames: "very high" (Table 1).
	if res.InterDecoderBytes < res.RedistributionBytes {
		t.Errorf("picture-level reference traffic (%d) expected to rival redistribution (%d)",
			res.InterDecoderBytes, res.RedistributionBytes)
	}
}

func TestSliceLevelBaseline(t *testing.T) {
	stream := makeStream(t, video.SceneFilm, 192, 256, 12) // 16 MB rows: 4 bands of 4
	res, err := RunBaseline(stream, BaselineConfig{Level: LevelSlice, M: 2, N: 2, CollectFrames: true})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSerial(t, stream, res.Frames)
	if res.InterDecoderBytes == 0 {
		t.Error("slice level must exchange halo strips")
	}
	// Halo strips are far smaller than the picture-level whole frames.
	picRes, err := RunBaseline(stream, BaselineConfig{Level: LevelPicture, M: 2, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.InterDecoderBytes >= picRes.InterDecoderBytes {
		t.Errorf("slice-level comm (%d) should undercut picture-level (%d)",
			res.InterDecoderBytes, picRes.InterDecoderBytes)
	}
}

func TestSliceLevelRejectsThinBands(t *testing.T) {
	stream := makeStream(t, video.SceneFilm, 192, 128, 6) // 8 rows, 4 bands of 2 < halo 3
	if _, err := RunBaseline(stream, BaselineConfig{Level: LevelSlice, M: 2, N: 2}); err == nil {
		t.Error("thin bands should be rejected")
	}
}

func TestMacroblockLevelHasNoRedistribution(t *testing.T) {
	// The contrast Table 1 draws: the hierarchical system sends no decoded
	// pixels at all between nodes except MEI reference macroblocks.
	stream := makeStream(t, video.SceneFilm, 192, 128, 9)
	res, err := service.Run(stream, service.Config{K: 1, M: 2, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Decoder-to-decoder traffic exists (MEI) but is far below one frame per
	// picture.
	var interDecoder int64
	for _, a := range res.DecoderNodeIDs {
		for _, b := range res.DecoderNodeIDs {
			interDecoder += res.PairBytes(a, b)
		}
	}
	frameBytes := int64(192*128) * 3 / 2
	if interDecoder > frameBytes*int64(res.Throughput.Pictures)/2 {
		t.Errorf("macroblock-level inter-decoder traffic %d too high vs frames %d",
			interDecoder, frameBytes*int64(res.Throughput.Pictures))
	}
}

func TestDisplayOrder(t *testing.T) {
	I, P, B := mpeg2.PictureI, mpeg2.PictureP, mpeg2.PictureB
	// Decode order I P B B P B B -> display I B B P B B P
	types := []mpeg2.PictureType{I, P, B, B, P, B, B}
	got := displayOrder(types)
	want := []int{0, 3, 1, 2, 6, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("display order %v, want %v", got, want)
		}
	}
	// All-intra: identity.
	types = []mpeg2.PictureType{I, I, I}
	got = displayOrder(types)
	for i, v := range got {
		if v != i {
			t.Fatalf("all-I order %v", got)
		}
	}
}
