package bits_test

import (
	"errors"
	"testing"

	"tiledwall/internal/bits"
)

// FuzzReader drives the bit reader with an op-coded program over arbitrary
// data. Input layout: first byte = op count hint, then alternating op bytes
// interpreted against the remaining bytes as reader data. Invariants: the
// reader never panics, the position never moves backwards except via SeekBit
// and Reset, the position never passes the end while err is nil, Peek never
// moves the position, a hostile read width sets ErrReadSize instead of
// corrupting state, and after every op — within the last 8 bytes, after
// Reset or SeekBit, after underflow — Peek32 and Peek(32) equal the next 32
// bits of the data read one bit at a time, zero-padded past the end.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08})
	f.Add([]byte{0xff, 0x00, 0x00, 0x01, 0xb3, 0x12, 0x00, 0xc0, 0x30, 0x20})
	f.Add([]byte{0x40, 0x21, 0x3f, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0x80, 0x7f})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		nops := int(in[0])%32 + 1
		if len(in) < 1+nops {
			return
		}
		ops := in[1 : 1+nops]
		data := in[1+nops:]
		r := bits.NewReader(data)
		cur := data
		for _, op := range ops {
			before := r.BitPos()
			wasErr := r.Err() != nil
			switch op % 7 {
			case 0:
				n := int(op>>3)%40 - 2 // includes hostile widths: -2..37
				r.Read(n)
			case 1:
				n := int(op>>3) % 40
				p1 := r.BitPos()
				r.Peek(n)
				if r.BitPos() != p1 {
					t.Fatalf("Peek moved position %d -> %d", p1, r.BitPos())
				}
			case 2:
				n := int(op>>3)%70 - 4 // includes negative skips
				r.Skip(n)
			case 3:
				r.AlignByte()
			case 4:
				r.ReadBit()
			case 5:
				pos := int(op>>3) * r.Len() / 32
				r.SeekBit(pos)
				checkPeek32(t, r, cur)
				continue // SeekBit may legitimately move backwards
			case 6:
				// Re-point at a suffix of the data: a new length, so a new
				// zero-padded tail.
				cur = data[int(op>>3)%(len(data)+1):]
				r.Reset(cur)
				checkPeek32(t, r, cur)
				continue // Reset rewinds and clears the error
			}
			checkPeek32(t, r, cur)
			if r.Err() == nil {
				if r.BitPos() < before {
					t.Fatalf("op %#x moved position backwards %d -> %d", op, before, r.BitPos())
				}
				if r.BitPos() > r.Len() {
					t.Fatalf("op %#x advanced past end: pos %d, len %d", op, r.BitPos(), r.Len())
				}
			}
			if wasErr && r.Err() == nil {
				t.Fatalf("op %#x cleared a sticky error", op)
			}
		}
		if err := r.Err(); err != nil {
			if !errors.Is(err, bits.ErrUnderflow) && !errors.Is(err, bits.ErrReadSize) {
				t.Fatalf("unexpected reader error type: %v", err)
			}
		}
	})
}

// refPeek32 returns the 32 bits of data from bit pos, MSB first, reading one
// bit at a time and treating bits past the end as zero.
func refPeek32(data []byte, pos int) uint32 {
	var v uint32
	for i := pos; i < pos+32; i++ {
		v <<= 1
		if i < len(data)*8 && data[i>>3]&(0x80>>uint(i&7)) != 0 {
			v |= 1
		}
	}
	return v
}

func checkPeek32(t *testing.T, r *bits.Reader, data []byte) {
	t.Helper()
	want := refPeek32(data, r.BitPos())
	if got := r.Peek32(); got != want {
		t.Fatalf("Peek32 at bit %d of %d = %#x, want %#x", r.BitPos(), r.Len(), got, want)
	}
	if got := r.Peek(32); got != want {
		t.Fatalf("Peek(32) at bit %d of %d = %#x, want %#x", r.BitPos(), r.Len(), got, want)
	}
}

// TestPeek32NearEnd compares Peek32 with a bit-at-a-time reference at every
// bit position of buffers of every length up to 20 bytes — covering the
// zero-padded tail that serves the last 8 bytes — then after an underflowing
// read, and after Reset onto a shorter buffer.
func TestPeek32NearEnd(t *testing.T) {
	data := make([]byte, 20)
	for i := range data {
		data[i] = byte(0x9d * (i + 1))
	}
	for n := 0; n <= len(data); n++ {
		buf := data[:n]
		r := bits.NewReader(buf)
		for pos := 0; pos <= n*8; pos++ {
			r.SeekBit(pos)
			if got, want := r.Peek32(), refPeek32(buf, pos); got != want {
				t.Fatalf("len %d pos %d: Peek32 = %#x, want %#x", n, pos, got, want)
			}
		}
		r.SeekBit(0)
		for i := 0; i <= n/4; i++ {
			r.Read(32)
		}
		if got := r.Peek32(); got != 0 || r.Err() == nil {
			t.Fatalf("len %d after reading past the end: Peek32 = %#x, err %v", n, got, r.Err())
		}
		r.Reset(buf[n/2:])
		if got, want := r.Peek32(), refPeek32(buf[n/2:], 0); got != want || r.Err() != nil {
			t.Fatalf("len %d after Reset: Peek32 = %#x, want %#x (err %v)", n, got, want, r.Err())
		}
	}
	var zero bits.Reader
	if zero.Peek32() != 0 {
		t.Fatal("zero Reader Peek32 is not 0")
	}
}

// FuzzNextStartCode checks the start-code scanner: every reported offset must
// point at a genuine 00 00 01 prefix with a readable code byte, scanning must
// terminate, and StartCodeAt must agree with the raw bytes.
func FuzzNextStartCode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x01, 0xb3})
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x01, 0xb8, 0x00, 0x00, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		seen := 0
		for off := bits.NextStartCode(data, 0); off >= 0; off = bits.NextStartCode(data, off+1) {
			if off+3 >= len(data) {
				t.Fatalf("offset %d leaves no room for a code byte in %d bytes", off, len(data))
			}
			if data[off] != 0 || data[off+1] != 0 || data[off+2] != 1 {
				t.Fatalf("offset %d is not a start-code prefix", off)
			}
			code, ok := bits.StartCodeAt(data, off)
			if !ok || code != data[off+3] {
				t.Fatalf("StartCodeAt(%d) = %#x,%v disagrees with data %#x", off, code, ok, data[off+3])
			}
			if seen++; seen > len(data) {
				t.Fatal("scanner reported more start codes than bytes")
			}
		}
	})
}
