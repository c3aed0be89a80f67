package mpeg2

import (
	"math/rand"
	"testing"

	"tiledwall/internal/bits"
)

// Kernel benchmarks for the hot-path overhaul: the three IDCT coefficient
// classes the fast dispatch distinguishes, and the four half-pel motion
// compensation phases. Run with the rest of the continuous-benchmark layer:
//
//	go test -bench 'IDCT|MotionComp' -benchmem ./internal/mpeg2/

func BenchmarkIDCTDCOnly(b *testing.B) {
	var blk [64]int32
	blk[0] = 123
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tmp := blk
		IDCTFast(&tmp, 0)
	}
}

func BenchmarkIDCTSparse(b *testing.B) {
	// Coefficients confined to the top four rows: the texture class low-bitrate
	// inter blocks land in, served by the folded-column fast path.
	rng := rand.New(rand.NewSource(2))
	var blk [64]int32
	for i := 0; i < 32; i++ {
		blk[i] = int32(rng.Intn(512) - 256)
	}
	mask := ACMaskOf(&blk)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tmp := blk
		IDCTFast(&tmp, mask)
	}
}

func BenchmarkIDCTFull(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var blk [64]int32
	for i := range blk {
		blk[i] = int32(rng.Intn(512) - 256)
	}
	mask := ACMaskOf(&blk)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tmp := blk
		IDCTFast(&tmp, mask)
	}
}

// benchPlane builds a reference plane and a destination for one 16x16 luma
// prediction fetch.
func benchPlane() (src []byte, stride int, dst []byte) {
	stride = 720
	src = make([]byte, stride*64)
	rng := rand.New(rand.NewSource(4))
	for i := range src {
		src[i] = byte(rng.Intn(256))
	}
	return src, stride, make([]byte, 16*16)
}

func benchMotionComp(b *testing.B, hx, hy int) {
	src, stride, dst := benchPlane()
	b.ReportAllocs()
	b.SetBytes(16 * 16)
	for i := 0; i < b.N; i++ {
		samplePlane(dst, 16, 16, src, stride, stride*4+8, hx, hy)
	}
}

func BenchmarkMotionCompCopy(b *testing.B) { benchMotionComp(b, 0, 0) }
func BenchmarkMotionCompH(b *testing.B)    { benchMotionComp(b, 1, 0) }
func BenchmarkMotionCompV(b *testing.B)    { benchMotionComp(b, 0, 1) }
func BenchmarkMotionCompHV(b *testing.B)   { benchMotionComp(b, 1, 1) }

// BenchmarkMotionCompHVRef measures the generic per-pixel kernel the
// specialised ones are diffed against, so the speedup stays visible in the
// benchmark log.
func BenchmarkMotionCompHVRef(b *testing.B) {
	src, stride, dst := benchPlane()
	b.ReportAllocs()
	b.SetBytes(16 * 16)
	for i := 0; i < b.N; i++ {
		samplePlaneRef(dst, 16, 16, src, stride, stride*4+8, 1, 1)
	}
}

// SliceVLDStream supplies the stream BenchmarkSliceVLD parses. The encoder
// imports this package, so an internal test cannot encode one; the external
// test package installs the generator at init (vld_stream_test.go).
var SliceVLDStream func() []byte

// BenchmarkSliceVLD runs the slice parser over every slice of every picture
// unit of a short real stream (one I, one P and two B pictures): "full" is
// the decoders' pass, which places and dequantises coefficients; "parse" is
// the splitter's parse-only pass, which only needs macroblock bit
// boundaries, predictor state and AC masks.
//
//	go test -run '^$' -bench SliceVLD -benchmem ./internal/mpeg2/
func BenchmarkSliceVLD(b *testing.B) {
	if SliceVLDStream == nil {
		b.Skip("no stream generator installed")
	}
	st, err := ParseStream(SliceVLDStream())
	if err != nil {
		b.Fatal(err)
	}
	type picture struct {
		ctx    PictureContext
		unit   []byte
		slices []SliceRef
	}
	pics := make([]picture, len(st.Pictures))
	bytes := 0
	for i, unit := range st.Pictures {
		ph, off, err := ParsePictureUnit(unit)
		if err != nil {
			b.Fatal(err)
		}
		p := &pics[i]
		if err := p.ctx.Init(st.Seq, ph); err != nil {
			b.Fatal(err)
		}
		p.unit = unit
		p.slices = IndexSlices(st.Seq, unit, off, nil)
		bytes += len(unit)
	}
	for _, mode := range []struct {
		name      string
		parseOnly bool
	}{{"full", false}, {"parse", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var (
				sd SliceDecoder
				r  bits.Reader
				mb Macroblock
			)
			b.ReportAllocs()
			b.SetBytes(int64(bytes))
			for i := 0; i < b.N; i++ {
				for p := range pics {
					pic := &pics[p]
					for _, ref := range pic.slices {
						if err := sd.ResetFullAt(&pic.ctx, &r, pic.unit, ref); err != nil {
							b.Fatal(err)
						}
						sd.SetParseOnly(mode.parseOnly)
						for {
							ok, err := sd.Next(&mb)
							if err != nil {
								b.Fatal(err)
							}
							if !ok {
								break
							}
						}
					}
				}
			}
		})
	}
}
