package mpeg2

import (
	"testing"

	"tiledwall/internal/bits"
)

// flatDecode is the reference DCT symbol decoder: one lookup in the flat
// 2^16-entry table, then separate reads for the sign bit and for the escape
// fields — the per-field decode the two-level tables replaced.
func flatDecode(lut []dctEntry, r *bits.Reader) (run, level int, eob, ok bool) {
	e := lut[r.Peek(dctFlatBits)]
	switch e.run {
	case dctInvalid:
		return 0, 0, false, false
	case int8(eobRun):
		r.Skip(int(e.len))
		return 0, 0, true, true
	case dctEsc:
		r.Skip(dctEscapeLen)
		run = int(r.Read(6))
		lv := int32(r.Read(12))
		if lv&0x800 != 0 {
			lv -= 0x1000
		}
		if lv == 0 || lv == -2048 {
			return 0, 0, false, false
		}
		return run, int(lv), false, true
	}
	r.Skip(int(e.len))
	run, level = int(e.run), int(e.level)
	if r.ReadBit() != 0 {
		level = -level
	}
	return run, level, false, true
}

type dctCase struct {
	name  string
	tab   *dctTable
	specs []dctSpec
}

func dctCases() []dctCase {
	return []dctCase{
		{"B-14", dctTableB14, b14Specs},
		{"B-14 first", dctTableB14First, b14First()},
		{"B-15", dctTableB15, b15Specs()},
	}
}

// dctComparer decodes the same bytes with a two-level table and with its
// flat reference.
type dctComparer struct {
	dctCase
	flat   []dctEntry
	r1, r2 bits.Reader
}

// compare reports any difference in the decoded symbol, the bits consumed
// or the reader's error state.
func (c *dctComparer) compare(t *testing.T, data []byte) {
	t.Helper()
	r1, r2 := &c.r1, &c.r2
	r1.Reset(data)
	r2.Reset(data)
	run1, lv1, eob1, ok1 := c.tab.decode(r1)
	run2, lv2, eob2, ok2 := flatDecode(c.flat, r2)
	if run1 != run2 || lv1 != lv2 || eob1 != eob2 || ok1 != ok2 ||
		r1.BitPos() != r2.BitPos() || r1.Err() != r2.Err() {
		t.Fatalf("%s %x: two-level (run %d level %d eob %v ok %v pos %d err %v), flat (run %d level %d eob %v ok %v pos %d err %v)",
			c.name, data, run1, lv1, eob1, ok1, r1.BitPos(), r1.Err(), run2, lv2, eob2, ok2, r2.BitPos(), r2.Err())
	}
}

// TestDCTTwoLevelMatchesFlat checks the two-level coefficient tables
// against the flat 16-bit lookup exhaustively: every 16-bit prefix with both
// values of the following bit (the sign of a 16-bit code) and two fillers
// after it, every prefix truncated to one and two bytes (the lookahead
// zero-pads and the reader underflows), and every escape run/level pair,
// both complete and cut short.
func TestDCTTwoLevelMatchesFlat(t *testing.T) {
	for _, dc := range dctCases() {
		c := &dctComparer{dctCase: dc, flat: flatDCT(dc.name, dc.specs)}
		for p := 0; p < 1<<16; p++ {
			for s := 0; s < 2; s++ {
				for _, fill := range []byte{0x00, 0xff} {
					data := []byte{byte(p >> 8), byte(p), byte(s<<7) | fill>>1, fill}
					c.compare(t, data)
				}
			}
			c.compare(t, []byte{byte(p >> 8), byte(p)})
			c.compare(t, []byte{byte(p >> 8)})
		}
		for run := 0; run < 64; run++ {
			for lv := 0; lv < 1<<12; lv++ {
				w := uint32(1)<<18 | uint32(run)<<12 | uint32(lv) // 000001 rrrrrr llllllllllll
				data := []byte{byte(w >> 16), byte(w >> 8), byte(w), 0xa5}
				c.compare(t, data)
				c.compare(t, data[:3])
				c.compare(t, data[:2])
			}
		}
	}
}

// TestDCTEscapeBoundaryLevels pins the escape level range: ±1 and ±2047 are
// coefficients, 0 and -2048 are forbidden, and every escape consumes its
// full 24 bits either way.
func TestDCTEscapeBoundaryLevels(t *testing.T) {
	for _, c := range dctCases() {
		for _, tc := range []struct {
			level int
			ok    bool
		}{{1, true}, {-1, true}, {2047, true}, {-2047, true}, {0, false}, {-2048, false}} {
			w := uint32(1)<<18 | 5<<12 | uint32(tc.level)&0xfff
			r := bits.NewReader([]byte{byte(w >> 16), byte(w >> 8), byte(w)})
			run, level, eob, ok := c.tab.decode(r)
			if ok != tc.ok || eob || r.BitPos() != 24 || r.Err() != nil {
				t.Fatalf("%s escape level %d: ok %v eob %v pos %d err %v", c.name, tc.level, ok, eob, r.BitPos(), r.Err())
			}
			if ok && (run != 5 || level != tc.level) {
				t.Fatalf("%s escape level %d decoded as run %d level %d", c.name, tc.level, run, level)
			}
		}
	}
}

// TestBuildDCTRejectsLongHighCode checks the init-time invariant behind the
// two-level split: a code longer than 8 bits must start with six zeros.
func TestBuildDCTRejectsLongHighCode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("buildDCT accepted a 9-bit code outside the 000000 prefix")
		}
	}()
	buildDCT("bad", []dctSpec{{0, 1, "1"}, {1, 1, "0100 0000 1"}})
}
