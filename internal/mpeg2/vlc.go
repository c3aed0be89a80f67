// Package mpeg2 implements the MPEG-2 video (ISO/IEC 13818-2) substrate used
// by the parallel decoder: bitstream syntax, variable-length code tables,
// inverse quantisation, IDCT, motion compensation, and a complete serial
// decoder. The same slice/macroblock parser is shared by the second-level
// splitter (which needs macroblock bit boundaries and predictor state but no
// pixel work) and by the decoders.
//
// Supported subset: Main Profile chroma 4:2:0, progressive frame pictures
// with frame prediction and frame DCT, both intra VLC formats, both scan
// orders, both quantiser-scale mappings. See DESIGN.md §8 for the list of
// deliberate omissions (field pictures, dual prime, scalability).
package mpeg2

import (
	"fmt"
	"strings"

	"tiledwall/internal/bits"
)

// vlcSpec describes one codeword as a string of '0'/'1' (spaces ignored) and
// the value it decodes to. Tables are declared in this canonical, reviewable
// form and compiled into flat lookup tables at init time.
type vlcSpec struct {
	code string
	val  int
}

// vlcEntry is one slot of a compiled lookup table.
type vlcEntry struct {
	val int16
	len uint8 // 0 marks an invalid code
}

// vlcTable decodes by peeking maxLen bits and indexing a flat table.
type vlcTable struct {
	maxLen int
	lut    []vlcEntry
	// enc maps value -> (code, length) for the encoder.
	enc map[int]vlcCode
}

type vlcCode struct {
	bits uint32
	n    uint8
}

func parseCode(s string) (bits uint32, n int) {
	for _, c := range s {
		switch c {
		case '0':
			bits <<= 1
			n++
		case '1':
			bits = bits<<1 | 1
			n++
		case ' ':
		default:
			panic(fmt.Sprintf("mpeg2: bad code char %q in %q", c, s))
		}
	}
	return bits, n
}

func buildVLC(name string, specs []vlcSpec) *vlcTable {
	maxLen := 0
	for _, s := range specs {
		_, n := parseCode(s.code)
		if n > maxLen {
			maxLen = n
		}
	}
	t := &vlcTable{
		maxLen: maxLen,
		lut:    make([]vlcEntry, 1<<uint(maxLen)),
		enc:    make(map[int]vlcCode, len(specs)),
	}
	for _, s := range specs {
		code, n := parseCode(s.code)
		if _, dup := t.enc[s.val]; dup {
			panic(fmt.Sprintf("mpeg2: duplicate value %d in table %s", s.val, name))
		}
		t.enc[s.val] = vlcCode{bits: code, n: uint8(n)}
		base := code << uint(maxLen-n)
		span := 1 << uint(maxLen-n)
		for i := 0; i < span; i++ {
			slot := &t.lut[base+uint32(i)]
			if slot.len != 0 {
				panic(fmt.Sprintf("mpeg2: table %s not prefix-free at %q", name, s.code))
			}
			slot.val = int16(s.val)
			slot.len = uint8(n)
		}
	}
	return t
}

// lookup returns the table slot for the codeword at the top of the 32-bit
// lookahead w. Callers whose codeword is followed by fixed-width fields take
// those from the same w and advance once.
func (t *vlcTable) lookup(w uint32) vlcEntry {
	return t.lut[w>>(32-uint(t.maxLen))]
}

// decode reads one codeword from a single 32-bit lookahead; ok is false for
// an invalid code.
func (t *vlcTable) decode(r *bits.Reader) (val int, ok bool) {
	e := t.lookup(r.Peek32())
	if e.len == 0 {
		return 0, false
	}
	r.Skip(int(e.len))
	return int(e.val), true
}

// encode writes the codeword for val; it panics on unknown values because
// table membership is a static property of the encoder.
func (t *vlcTable) encode(w *bits.Writer, val int) {
	c, ok := t.enc[val]
	if !ok {
		panic(fmt.Sprintf("mpeg2: no code for value %d", val))
	}
	w.WriteBits(c.bits, int(c.n))
}

func (t *vlcTable) codeLen(val int) (int, bool) {
	c, ok := t.enc[val]
	return int(c.n), ok
}

// describe lists the table contents for documentation tests.
func (t *vlcTable) describe() string {
	var b strings.Builder
	for v, c := range t.enc {
		fmt.Fprintf(&b, "%d:%0*b ", v, c.n, c.bits)
	}
	return b.String()
}
