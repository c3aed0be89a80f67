package mpeg2

import (
	"fmt"

	"tiledwall/internal/bits"
)

// DCT coefficient tables (Annex B tables B-14 and B-15). A decoded symbol is
// a (run, level) pair; the level sign is a separate trailing bit. Two symbols
// are special:
//
//   - end of block (EOB), encoded here as run = eobRun;
//   - escape, a fixed 6-bit code followed by 6-bit run and 12-bit signed
//     level; the table only marks the code, and decode reads the fields.
//
// Table B-14 additionally gives run 0 / level 1 a 1-bit code ("1"+sign) when
// it is the first coefficient of a block, where EOB ("10") cannot occur.
const (
	eobRun        = -1
	dctEscape     = "0000 01"
	dctEscapeLen  = 6
	dctEscapeBits = dctEscapeLen + 6 + 12 // code, run and level
)

type dctSpec struct {
	run, level int
	code       string
}

type dctEntry struct {
	run   int8 // eobRun for EOB; -2 for invalid; -3 for escape
	level int8
	len   uint8
}

const (
	dctInvalid = -2
	dctEsc     = -3
)

// dctFlatBits is the length of the longest DCT codeword in any table (sign
// bit and escape fields not counted).
const dctFlatBits = 16

// dctTable decodes with two small lookup tables instead of one flat
// 2^16-entry table — 1280 three-byte entries, under 4 KiB per table — so
// all three coefficient tables stay L1-resident. The split rests on
// an invariant of tables B-14 and B-15 that buildDCT checks at init: every
// codeword whose first six bits are not all zero is at most 8 bits long.
//
//   - hi is indexed by the next 8 bits and serves every lookahead whose first
//     six bits are not all zero (the escape code included);
//   - lo is indexed by the next 16 bits when the first six are zero, which
//     leaves only 10 significant bits.
type dctTable struct {
	hi  [256]dctEntry
	lo  [1 << (dctFlatBits - 6)]dctEntry
	enc map[uint16]vlcCode // run<<8|level -> code (without sign bit)
	eob vlcCode            // end-of-block code (zero for tables without one)
}

// flatDCT compiles specs plus the escape code into a flat table indexed by
// the next dctFlatBits bits.
func flatDCT(name string, specs []dctSpec) []dctEntry {
	lut := make([]dctEntry, 1<<dctFlatBits)
	for i := range lut {
		lut[i].run = dctInvalid
	}
	insert := func(code string, run, level int) {
		c, n := parseCode(code)
		if n > dctFlatBits {
			panic(fmt.Sprintf("mpeg2: DCT table %s code %q longer than %d bits", name, code, dctFlatBits))
		}
		base := c << uint(dctFlatBits-n)
		span := 1 << uint(dctFlatBits-n)
		for i := 0; i < span; i++ {
			slot := &lut[base+uint32(i)]
			if slot.run != dctInvalid {
				panic(fmt.Sprintf("mpeg2: DCT table %s not prefix-free at %q", name, code))
			}
			slot.run = int8(run)
			slot.level = int8(level)
			slot.len = uint8(n)
		}
	}
	for _, s := range specs {
		insert(s.code, s.run, s.level)
	}
	insert(dctEscape, dctEsc, 0)
	return lut
}

func buildDCT(name string, specs []dctSpec) *dctTable {
	t := &dctTable{enc: make(map[uint16]vlcCode, len(specs))}
	flat := flatDCT(name, specs)
	copy(t.lo[:], flat)
	for i := range t.hi {
		if i < 1<<2 {
			// First six bits zero: lo's range.
			t.hi[i].run = dctInvalid
			continue
		}
		span := flat[i<<8 : (i+1)<<8]
		for _, e := range span {
			if e != span[0] {
				panic(fmt.Sprintf("mpeg2: DCT table %s has a code longer than 8 bits under prefix %08b", name, i))
			}
		}
		t.hi[i] = span[0]
	}
	for _, s := range specs {
		c, n := parseCode(s.code)
		if s.run == eobRun {
			t.eob = vlcCode{bits: c, n: uint8(n)}
		}
		if s.run >= 0 {
			key := uint16(s.run)<<8 | uint16(s.level)
			if _, dup := t.enc[key]; dup {
				panic(fmt.Sprintf("mpeg2: DCT table %s duplicate run/level %d/%d", name, s.run, s.level))
			}
			t.enc[key] = vlcCode{bits: c, n: uint8(n)}
		}
	}
	return t
}

// code returns the VLC (without sign) for run/level, or ok=false when the
// pair must be escape-coded.
func (t *dctTable) code(run, level int) (vlcCode, bool) {
	if level < 0 {
		level = -level
	}
	if run > 31 || level > 255 {
		return vlcCode{}, false
	}
	c, ok := t.enc[uint16(run)<<8|uint16(level)]
	return c, ok
}

// entry returns the table slot for the codeword at the top of the 32-bit
// lookahead w.
func (t *dctTable) entry(w uint32) dctEntry {
	if w >= 1<<26 {
		return t.hi[w>>24]
	}
	return t.lo[w>>16&(1<<(dctFlatBits-6)-1)]
}

// decode reads one DCT symbol from a single 32-bit lookahead and advances
// once: the codeword, its sign bit, or the whole escape (6-bit code, 6-bit
// run, 12-bit signed level) all fit in the word. It returns:
//
//	eob=true                  — end of block
//	run, level (signed)       — a coefficient
//	ok=false                  — invalid code
//
// An escape with a forbidden level (0 or -2048) is consumed before it is
// rejected, so the error reports the bit position after it.
func (t *dctTable) decode(r *bits.Reader) (run, level int, eob, ok bool) {
	w := r.Peek32()
	e := t.entry(w)
	switch e.run {
	case dctInvalid:
		return 0, 0, false, false
	case int8(eobRun):
		r.Skip(int(e.len))
		return 0, 0, true, true
	case dctEsc:
		r.Skip(dctEscapeBits)
		lv := int32(w<<12) >> 20
		if lv == 0 || lv == -2048 {
			return 0, 0, false, false
		}
		return int(w >> 20 & 63), int(lv), false, true
	}
	r.Skip(int(e.len) + 1)
	// The sign bit follows the codeword; s is 0 or -1.
	s := int(int32(w<<e.len) >> 31)
	return int(e.run), (int(e.level) ^ s) - s, false, true
}

// b14Specs is Table B-14 ("DCT coefficients table zero"). The first-
// coefficient special case for run 0 / level 1 is handled in the block
// parser. EOB is run=eobRun.
var b14Specs = []dctSpec{
	{eobRun, 0, "10"},
	{0, 1, "11"}, // subsequent-coefficient code for 0/±1
	{1, 1, "011"},
	{0, 2, "0100"}, {2, 1, "0101"},
	{0, 3, "0010 1"}, {4, 1, "0011 0"}, {3, 1, "0011 1"},
	{7, 1, "0001 00"}, {6, 1, "0001 01"}, {1, 2, "0001 10"}, {5, 1, "0001 11"},
	{2, 2, "0000 100"}, {9, 1, "0000 101"}, {0, 4, "0000 110"}, {8, 1, "0000 111"},
	{13, 1, "0010 0000"}, {0, 6, "0010 0001"}, {12, 1, "0010 0010"}, {11, 1, "0010 0011"},
	{3, 2, "0010 0100"}, {1, 3, "0010 0101"}, {0, 5, "0010 0110"}, {10, 1, "0010 0111"},
	{16, 1, "0000 0010 00"}, {5, 2, "0000 0010 01"}, {0, 7, "0000 0010 10"}, {2, 3, "0000 0010 11"},
	{1, 4, "0000 0011 00"}, {15, 1, "0000 0011 01"}, {14, 1, "0000 0011 10"}, {4, 2, "0000 0011 11"},
	{0, 11, "0000 0001 0000"}, {8, 2, "0000 0001 0001"}, {4, 3, "0000 0001 0010"}, {0, 10, "0000 0001 0011"},
	{2, 4, "0000 0001 0100"}, {7, 2, "0000 0001 0101"}, {21, 1, "0000 0001 0110"}, {20, 1, "0000 0001 0111"},
	{0, 9, "0000 0001 1000"}, {19, 1, "0000 0001 1001"}, {18, 1, "0000 0001 1010"}, {1, 5, "0000 0001 1011"},
	{3, 3, "0000 0001 1100"}, {0, 8, "0000 0001 1101"}, {6, 2, "0000 0001 1110"}, {17, 1, "0000 0001 1111"},
	{10, 2, "0000 0000 1000 0"}, {9, 2, "0000 0000 1000 1"}, {5, 3, "0000 0000 1001 0"}, {3, 4, "0000 0000 1001 1"},
	{2, 5, "0000 0000 1010 0"}, {1, 7, "0000 0000 1010 1"}, {1, 6, "0000 0000 1011 0"}, {0, 15, "0000 0000 1011 1"},
	{0, 14, "0000 0000 1100 0"}, {0, 13, "0000 0000 1100 1"}, {0, 12, "0000 0000 1101 0"}, {26, 1, "0000 0000 1101 1"},
	{25, 1, "0000 0000 1110 0"}, {24, 1, "0000 0000 1110 1"}, {23, 1, "0000 0000 1111 0"}, {22, 1, "0000 0000 1111 1"},
	{0, 31, "0000 0000 0100 00"}, {0, 30, "0000 0000 0100 01"}, {0, 29, "0000 0000 0100 10"}, {0, 28, "0000 0000 0100 11"},
	{0, 27, "0000 0000 0101 00"}, {0, 26, "0000 0000 0101 01"}, {0, 25, "0000 0000 0101 10"}, {0, 24, "0000 0000 0101 11"},
	{0, 23, "0000 0000 0110 00"}, {0, 22, "0000 0000 0110 01"}, {0, 21, "0000 0000 0110 10"}, {0, 20, "0000 0000 0110 11"},
	{0, 19, "0000 0000 0111 00"}, {0, 18, "0000 0000 0111 01"}, {0, 17, "0000 0000 0111 10"}, {0, 16, "0000 0000 0111 11"},
	{0, 40, "0000 0000 0010 000"}, {0, 39, "0000 0000 0010 001"}, {0, 38, "0000 0000 0010 010"}, {0, 37, "0000 0000 0010 011"},
	{0, 36, "0000 0000 0010 100"}, {0, 35, "0000 0000 0010 101"}, {0, 34, "0000 0000 0010 110"}, {0, 33, "0000 0000 0010 111"},
	{0, 32, "0000 0000 0011 000"}, {1, 14, "0000 0000 0011 001"}, {1, 13, "0000 0000 0011 010"}, {1, 12, "0000 0000 0011 011"},
	{1, 11, "0000 0000 0011 100"}, {1, 10, "0000 0000 0011 101"}, {1, 9, "0000 0000 0011 110"}, {1, 8, "0000 0000 0011 111"},
	{1, 18, "0000 0000 0001 0000"}, {1, 17, "0000 0000 0001 0001"}, {1, 16, "0000 0000 0001 0010"}, {1, 15, "0000 0000 0001 0011"},
	{6, 3, "0000 0000 0001 0100"}, {16, 2, "0000 0000 0001 0101"}, {15, 2, "0000 0000 0001 0110"}, {14, 2, "0000 0000 0001 0111"},
	{13, 2, "0000 0000 0001 1000"}, {12, 2, "0000 0000 0001 1001"}, {11, 2, "0000 0000 0001 1010"}, {31, 1, "0000 0000 0001 1011"},
	{30, 1, "0000 0000 0001 1100"}, {29, 1, "0000 0000 0001 1101"}, {28, 1, "0000 0000 0001 1110"}, {27, 1, "0000 0000 0001 1111"},
}

var dctTableB14 = buildDCT("B-14", b14Specs)

// dctTableB14First decodes the first coefficient of a non-intra block, where
// EOB cannot occur and run 0 / level 1 therefore takes the 1-bit code "1".
var dctTableB14First = buildDCT("B-14 first", b14First())

func b14First() []dctSpec {
	specs := make([]dctSpec, 0, len(b14Specs))
	for _, s := range b14Specs {
		switch {
		case s.run == eobRun:
			// EOB cannot be the first symbol.
		case s.run == 0 && s.level == 1:
			specs = append(specs, dctSpec{0, 1, "1"})
		default:
			specs = append(specs, s)
		}
	}
	return specs
}

// dctTableB15 is Table B-15 ("DCT coefficients table one"), selected by
// intra_vlc_format = 1 for intra blocks. The short codes that differ from
// B-14 are transcribed below; every B-14 entry whose code collides with a
// replacement is dropped, and the encoder escape-codes those pairs. This is
// a documented best-effort transcription (DESIGN.md §8): encoder and decoder
// share the table, so streams produced here always round-trip.
var dctTableB15 = buildDCT("B-15", b15Specs())

func b15Specs() []dctSpec {
	replacements := []dctSpec{
		{eobRun, 0, "0110"},
		{0, 1, "10"},
		{0, 2, "110"},
		{0, 3, "0111"},
		{1, 1, "010"},
		{0, 4, "1110 0"},
		{0, 5, "1110 1"},
	}
	replaced := map[[2]int]bool{}
	for _, r := range replacements {
		replaced[[2]int{r.run, r.level}] = true
	}
	conflicts := func(code string) bool {
		a, an := parseCode(code)
		for _, r := range replacements {
			b, bn := parseCode(r.code)
			n := an
			if bn < n {
				n = bn
			}
			if a>>uint(an-n) == b>>uint(bn-n) {
				return true
			}
		}
		return false
	}
	specs := append([]dctSpec(nil), replacements...)
	for _, s := range b14Specs {
		if replaced[[2]int{s.run, s.level}] || s.run == eobRun || conflicts(s.code) {
			continue
		}
		specs = append(specs, s)
	}
	return specs
}
