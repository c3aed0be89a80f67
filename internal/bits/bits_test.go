package bits

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReaderBasic(t *testing.T) {
	r := NewReader([]byte{0b10110100, 0b01011111})
	if got := r.Read(1); got != 1 {
		t.Fatalf("bit0 = %d, want 1", got)
	}
	if got := r.Read(3); got != 0b011 {
		t.Fatalf("bits1-3 = %03b, want 011", got)
	}
	if got := r.Peek(4); got != 0b0100 {
		t.Fatalf("peek4 = %04b, want 0100", got)
	}
	if r.BitPos() != 4 {
		t.Fatalf("BitPos = %d, want 4", r.BitPos())
	}
	if got := r.Read(8); got != 0b01000101 {
		t.Fatalf("cross-byte read = %08b, want 01000101", got)
	}
	r.AlignByte()
	if r.BitPos() != 16 {
		t.Fatalf("after align BitPos = %d, want 16", r.BitPos())
	}
	if r.Err() != nil {
		t.Fatalf("unexpected err %v", r.Err())
	}
}

func TestReaderUnderflow(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if got := r.Read(8); got != 0xFF {
		t.Fatalf("read = %x", got)
	}
	if got := r.Read(4); got != 0 {
		t.Fatalf("underflow read = %x, want 0", got)
	}
	if r.Err() != ErrUnderflow {
		t.Fatalf("err = %v, want ErrUnderflow", r.Err())
	}
}

func TestPeekNearEnd(t *testing.T) {
	// Buffers shorter than 8 bytes are read from the zero-padded tail copy.
	r := NewReader([]byte{0xAB, 0xCD})
	if got := r.Peek(16); got != 0xABCD {
		t.Fatalf("peek16 = %04x, want abcd", got)
	}
	if got := r.Peek(32); got != 0xABCD0000 {
		t.Fatalf("peek32 = %08x, want abcd0000", got)
	}
	r.Skip(8)
	if got := r.Peek(8); got != 0xCD {
		t.Fatalf("peek8@8 = %02x, want cd", got)
	}
}

func TestReaderSeek(t *testing.T) {
	r := NewReader([]byte{0x12, 0x34, 0x56})
	r.SeekBit(12)
	if got := r.Read(8); got != 0x45 {
		t.Fatalf("read@12 = %02x, want 45", got)
	}
	r.SeekBit(999)
	if r.Err() == nil {
		t.Fatal("seek out of range should set Err")
	}
}

func TestWriterBasic(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0b101, 3)
	w.WriteBits(0b10100, 5)
	w.WriteBits(0x5F, 8)
	got := w.Bytes()
	want := []byte{0b10110100, 0x5F}
	if !bytes.Equal(got, want) {
		t.Fatalf("bytes = %x, want %x", got, want)
	}
	if w.BitLen() != 16 {
		t.Fatalf("BitLen = %d, want 16", w.BitLen())
	}
}

func TestWriterAlign(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0b1, 1)
	w.AlignZero()
	if !w.ByteAligned() || w.BitLen() != 8 {
		t.Fatalf("align failed: len=%d", w.BitLen())
	}
	if got := w.Bytes(); got[0] != 0b10000000 {
		t.Fatalf("byte = %08b", got[0])
	}
	w.WriteBits(0b11, 2)
	w.AlignOne()
	if got := w.Bytes(); got[1] != 0b11111111 {
		t.Fatalf("AlignOne byte = %08b", got[1])
	}
}

func TestWriterPartialByte(t *testing.T) {
	w := NewWriter(2)
	w.WriteBits(0b110, 3)
	got := w.Bytes()
	if len(got) != 1 || got[0] != 0b11000000 {
		t.Fatalf("partial byte = %x", got)
	}
	// Bytes must not disturb the writer: keep writing afterwards.
	w.WriteBits(0b10111, 5)
	got = w.Bytes()
	if len(got) != 1 || got[0] != 0b11010111 {
		t.Fatalf("continued byte = %08b", got[0])
	}
}

func TestWriteBytes(t *testing.T) {
	w := NewWriter(8)
	w.WriteBytes([]byte{1, 2, 3})
	if !bytes.Equal(w.Bytes(), []byte{1, 2, 3}) {
		t.Fatalf("bytes = %x", w.Bytes())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned WriteBytes should panic")
		}
	}()
	w.WriteBit(1)
	w.WriteBytes([]byte{4})
}

// Property: a sequence of (value,width) writes reads back identically.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%64) + 1
		vals := make([]uint32, count)
		widths := make([]int, count)
		w := NewWriter(64)
		for i := range vals {
			widths[i] = rng.Intn(32) + 1
			vals[i] = rng.Uint32() & (1<<uint(widths[i]) - 1)
			w.WriteBits(vals[i], widths[i])
		}
		r := NewReader(w.Bytes())
		for i := range vals {
			if got := r.Read(widths[i]); got != vals[i] {
				return false
			}
		}
		return r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Peek never advances and agrees with Read.
func TestPeekReadAgreeQuick(t *testing.T) {
	f := func(data []byte, skip uint16, n uint8) bool {
		r := NewReader(data)
		r.Skip(int(skip) % (len(data)*8 + 1))
		width := int(n%32) + 1
		pos := r.BitPos()
		p := r.Peek(width)
		if r.BitPos() != pos {
			return false
		}
		return r.Read(width) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNextStartCode(t *testing.T) {
	data := []byte{0xFF, 0x00, 0x00, 0x01, 0xB3, 0x00, 0x00, 0x00, 0x01, 0x00, 0xAA}
	off := NextStartCode(data, 0)
	if off != 1 {
		t.Fatalf("first start code at %d, want 1", off)
	}
	if code, ok := StartCodeAt(data, off); !ok || code != SequenceHeaderCod {
		t.Fatalf("code = %x ok=%v", code, ok)
	}
	off = NextStartCode(data, off+3)
	if off != 6 {
		// 00 00 00 01 contains a prefix starting at index 6 (00 00 01).
		t.Fatalf("second start code at %d, want 6", off)
	}
	if code, _ := StartCodeAt(data, off); code != PictureStartCode {
		t.Fatalf("code = %x, want picture", code)
	}
	if NextStartCode(data, off+3) != -1 {
		t.Fatal("expected no more start codes")
	}
}

func TestScanStartCodes(t *testing.T) {
	var buf []byte
	codes := []byte{SequenceHeaderCod, GroupStartCode, PictureStartCode, 0x01, SequenceEndCode}
	for _, c := range codes {
		buf = append(buf, 0, 0, 1, c, 0xDE, 0xAD)
	}
	offs, got := ScanStartCodes(buf)
	if len(offs) != len(codes) {
		t.Fatalf("found %d codes, want %d", len(offs), len(codes))
	}
	for i := range codes {
		if got[i] != codes[i] {
			t.Fatalf("code[%d] = %x, want %x", i, got[i], codes[i])
		}
		if offs[i] != i*6 {
			t.Fatalf("off[%d] = %d, want %d", i, offs[i], i*6)
		}
	}
}

func TestNextStartCodeReader(t *testing.T) {
	data := []byte{0xAB, 0x00, 0x00, 0x01, 0x42, 0xFF}
	r := NewReader(data)
	r.Skip(3) // unaligned
	if !NextStartCodeReader(r) {
		t.Fatal("expected a start code")
	}
	if r.BitPos() != 8 {
		t.Fatalf("pos = %d, want 8", r.BitPos())
	}
	if got := r.Read(32); got != 0x00000142 {
		t.Fatalf("start code word = %08x", got)
	}
	if NextStartCodeReader(r) {
		t.Fatal("expected no further start code")
	}
}

func TestIsSliceStartCode(t *testing.T) {
	for _, c := range []byte{0x01, 0x50, 0xAF} {
		if !IsSliceStartCode(c) {
			t.Errorf("%#x should be a slice start code", c)
		}
	}
	for _, c := range []byte{0x00, 0xB0, 0xB3, 0xB8, 0xFF} {
		if IsSliceStartCode(c) {
			t.Errorf("%#x should not be a slice start code", c)
		}
	}
}

func BenchmarkReaderRead8(b *testing.B) {
	data := make([]byte, 1<<16)
	rand.New(rand.NewSource(1)).Read(data)
	r := NewReader(data)
	b.SetBytes(1)
	for i := 0; i < b.N; i++ {
		if r.Len()-r.BitPos() < 8 {
			r.Reset(data)
		}
		r.Read(8)
	}
}

func BenchmarkNextStartCode(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(2)).Read(data)
	copy(data[len(data)-4:], []byte{0, 0, 1, 0xB3})
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		NextStartCode(data, 0)
	}
}
