package mpeg2_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"tiledwall/internal/bits"
	"tiledwall/internal/encoder"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/video"
)

// fuzzStream lazily encodes one small deterministic stream shared by the
// fuzz targets as seed material.
var fuzzStream = sync.OnceValue(func() []byte {
	cfg := encoder.Config{Width: 64, Height: 48, GOPSize: 4, BSpacing: 2, InitialQScale: 6}
	src := video.NewSource(video.SceneFilm, 64, 48, 7)
	e, err := encoder.New(cfg)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 5; i++ {
		if err := e.Push(src.Frame(i)); err != nil {
			panic(err)
		}
	}
	if err := e.Flush(); err != nil {
		panic(err)
	}
	return e.Bytes()
})

// requireTyped asserts every decode failure is one of the package's typed
// sentinels — the contract the conformance harness leans on.
func requireTyped(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		return
	}
	if !errors.Is(err, mpeg2.ErrCorruptStream) && !errors.Is(err, mpeg2.ErrUnsupported) {
		t.Fatalf("error is neither ErrCorruptStream nor ErrUnsupported: %v", err)
	}
}

// FuzzSequenceHeader exercises stream indexing and sequence/extension header
// parsing on arbitrary bytes.
func FuzzSequenceHeader(f *testing.F) {
	s := fuzzStream()
	f.Add(s[:min(64, len(s))])
	f.Add([]byte{0x00, 0x00, 0x01, 0xb3, 0x04, 0x00, 0x30, 0x12, 0x34, 0x56, 0x78, 0x9a})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := mpeg2.ParseStream(data)
		requireTyped(t, err)
		if err == nil && (st.Seq.MBWidth() <= 0 || st.Seq.MBHeight() <= 0) {
			t.Fatalf("accepted sequence header with empty picture %dx%d", st.Seq.Width, st.Seq.Height)
		}
	})
}

// FuzzPictureHeader exercises picture header + coding extension parsing up
// to the first slice.
func FuzzPictureHeader(f *testing.F) {
	st, err := mpeg2.ParseStream(fuzzStream())
	if err != nil {
		f.Fatal(err)
	}
	for _, unit := range st.Pictures[:2] {
		f.Add(unit)
	}
	f.Add([]byte{0x00, 0x00, 0x01, 0x00, 0x00, 0x08, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, err := mpeg2.ParsePictureUnit(data)
		requireTyped(t, err)
	})
}

// FuzzVLC decodes one slice of arbitrary bytes under every VLC table
// configuration: the first byte selects picture type, quantiser scale type,
// intra VLC table (B-14 vs B-15), alternate scan and DC precision, so all
// macroblock-type, CBP, motion and DCT coefficient tables get hit. The slice
// decoder must terminate with a typed error or a complete slice — never
// panic, never loop.
//
// The slice is parsed twice, by a full decoder and by a parse-only one (the
// splitter's mode, which stores no coefficients). They must agree
// macroblock by macroblock — address, bit boundaries, flags, CBP, motion
// vectors, predictor state, AC masks up to the full path's mismatch-control
// bit — and on whether and where an error occurs: the splitter's bit
// boundaries are only valid if they are the decoder's.
func FuzzVLC(f *testing.F) {
	st, err := mpeg2.ParseStream(fuzzStream())
	if err != nil {
		f.Fatal(err)
	}
	// Seed with real slice payloads (bytes past the first slice start code)
	// under a few table selectors.
	for i, unit := range st.Pictures[:3] {
		if off := sliceOffset(unit); off > 0 {
			f.Add([]byte{byte(i)}, unit[off:])
		}
	}
	f.Add([]byte{0x05}, []byte{0x0a, 0xff, 0x00, 0x12})
	// An I macroblock whose first intra block escapes to run 63: the run
	// passes the block end, which both decoders must reject alike.
	f.Add([]byte{0x00}, []byte{0x2b, 0x80, 0xfe, 0x00, 0x3f})
	// The same past a non-intra block's end: a P macroblock whose first
	// block escapes to run 63 and then codes one more coefficient.
	f.Add([]byte{0x01}, []byte{0x2b, 0xf8, 0x3f, 0x80, 0x0e})
	f.Fuzz(func(t *testing.T, sel []byte, data []byte) {
		if len(sel) < 1 {
			return
		}
		flags := sel[0]
		seq := &mpeg2.SequenceHeader{
			Width: 64, Height: 48,
			IntraQ:    mpeg2.DefaultIntraQuantMatrix,
			NonIntraQ: mpeg2.DefaultNonIntraQuantMatrix,
		}
		pic := &mpeg2.PictureHeader{
			PicType:          mpeg2.PictureType(1 + flags%3),
			PictureStructure: 3,
			FramePredDCT:     true,
			IntraDCPrecision: int(flags>>2) % 4,
			QScaleType:       flags&(1<<4) != 0,
			IntraVLCFormat:   flags&(1<<5) != 0,
			AlternateScan:    flags&(1<<6) != 0,
			FCode:            [2][2]int{{2, 1}, {1, 2}},
		}
		ctx, err := mpeg2.NewPictureContext(seq, pic)
		if err != nil {
			requireTyped(t, err)
			return
		}
		vpos := 1 + int(flags>>7)*2
		rF, rP := bits.NewReader(data), bits.NewReader(data)
		full, err := mpeg2.NewSliceDecoder(ctx, rF, vpos)
		if err != nil {
			requireTyped(t, err)
			return
		}
		parse, err := mpeg2.NewSliceDecoder(ctx, rP, vpos)
		if err != nil {
			t.Fatalf("second slice header parse failed: %v", err)
		}
		parse.SetParseOnly(true)
		var mbF, mbP mpeg2.Macroblock
		limit := ctx.MBW*ctx.MBH + 2
		for i := 0; ; i++ {
			if i > limit {
				t.Fatalf("slice decoder did not terminate within %d macroblocks", limit)
			}
			okF, errF := full.Next(&mbF)
			okP, errP := parse.Next(&mbP)
			if (errF == nil) != (errP == nil) || errF != nil && errF.Error() != errP.Error() ||
				rF.BitPos() != rP.BitPos() {
				t.Fatalf("macroblock %d: full decode error %v at bit %d, parse-only error %v at bit %d",
					i, errF, rF.BitPos(), errP, rP.BitPos())
			}
			if errF != nil {
				requireTyped(t, errF)
				return
			}
			if okF != okP {
				t.Fatalf("macroblock %d: full decode more=%v, parse-only more=%v", i, okF, okP)
			}
			if !okF {
				return
			}
			if mbP.Blocks != nil {
				t.Fatalf("macroblock %d: parse-only decode exposed coefficient blocks", i)
			}
			if d := mbDiff(mbF, mbP); d != "" {
				t.Fatalf("macroblock %d: full and parse-only disagree on %s", i, d)
			}
		}
	})
}

// mbDiff names the first parse result on which a full decode (f) and a
// parse-only decode (p) of the same macroblock disagree, or returns "". The
// full path's AC mask may additionally carry row 7 (0x80) from mismatch
// control toggling coefficient 63; nothing else may differ.
func mbDiff(f, p mpeg2.Macroblock) string {
	for i := range f.ACMask {
		if f.ACMask[i]&^0x80 != p.ACMask[i]&^0x80 || p.ACMask[i]&^f.ACMask[i] != 0 {
			return fmt.Sprintf("ACMask[%d] (%#x vs %#x)", i, f.ACMask[i], p.ACMask[i])
		}
	}
	f.ACMask, f.Blocks = p.ACMask, p.Blocks
	if f != p {
		return fmt.Sprintf("fields (%+v vs %+v)", f, p)
	}
	return ""
}

// FuzzDecodePictureUnit runs full picture reconstruction — VLD, dequant,
// IDCT, motion compensation — over an arbitrary picture unit against real
// reference frames, checking the no-panic/typed-error contract of the
// complete decode path.
func FuzzDecodePictureUnit(f *testing.F) {
	st, err := mpeg2.ParseStream(fuzzStream())
	if err != nil {
		f.Fatal(err)
	}
	for _, unit := range st.Pictures[:3] {
		f.Add(unit)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seq := &mpeg2.SequenceHeader{
			Width: 64, Height: 48,
			IntraQ:    mpeg2.DefaultIntraQuantMatrix,
			NonIntraQ: mpeg2.DefaultNonIntraQuantMatrix,
		}
		w, h := seq.MBWidth()*16, seq.MBHeight()*16
		fwd := mpeg2.NewPixelBuf(0, 0, w, h)
		bwd := mpeg2.NewPixelBuf(0, 0, w, h)
		dst := mpeg2.NewPixelBuf(0, 0, w, h)
		_, err := mpeg2.DecodePictureUnit(seq, data, fwd, bwd, dst)
		requireTyped(t, err)
	})
}

// FuzzStream decodes whole arbitrary streams through the display-order
// decoder, with a dimension guard so the fuzzer cannot demand multi-gigabyte
// frame allocations.
func FuzzStream(f *testing.F) {
	f.Add(fuzzStream())
	f.Add([]byte{0x00, 0x00, 0x01, 0xb3})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := mpeg2.ParseStream(data)
		if err != nil {
			requireTyped(t, err)
			return
		}
		if st.Seq.MBWidth()*st.Seq.MBHeight() > 64*64 || len(st.Pictures) > 64 {
			return // syntactically valid but too large to reconstruct per-exec
		}
		dec := mpeg2.NewStreamDecoder(st)
		_, err = dec.DecodeAll()
		requireTyped(t, err)

		// The resilient decoder must additionally never fail outright.
		rd, err := mpeg2.NewResilientDecoder(data)
		if err != nil {
			requireTyped(t, err)
			return
		}
		if _, err := rd.DecodeAll(); err != nil {
			t.Fatalf("resilient decode failed: %v", err)
		}
	})
}

// sliceOffset returns the byte offset of the first slice payload (just past
// its start code) in a picture unit, or -1.
func sliceOffset(unit []byte) int {
	for off := bits.NextStartCode(unit, 0); off >= 0; off = bits.NextStartCode(unit, off+4) {
		if bits.IsSliceStartCode(unit[off+3]) {
			return off + 4
		}
	}
	return -1
}
