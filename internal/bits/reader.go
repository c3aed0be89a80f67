// Package bits provides MSB-first bit-level readers and writers and the
// MPEG-2 start-code scanning primitives shared by the decoder, the encoder
// and the splitters.
//
// MPEG-2 video is a bit-oriented format: macroblocks start and end at
// arbitrary bit positions, while the higher-level syntactic elements
// (sequence, GOP, picture, slice) begin with 32-bit byte-aligned start codes.
// Reader therefore tracks an exact bit position so callers can record the
// [start,end) bit range of a parsed macroblock — the second-level splitter
// copies those raw bits into sub-pictures.
package bits

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrUnderflow is returned (via Reader.Err) when a read runs past the end of
// the buffer. Reads after underflow return zeros so parsing code can check
// the error once per syntactic element instead of on every field.
var ErrUnderflow = errors.New("bits: read past end of stream")

// ErrReadSize is returned (via Reader.Err) when a read is requested with a
// width outside [0, 32]. Widths are normally compile-time constants, but
// corrupt-input hardening must not rely on that: a reader fed a hostile size
// degrades to zeros plus a sticky error instead of shifting by a negative
// amount or walking the position backwards.
var ErrReadSize = errors.New("bits: read size out of range")

// Reader reads an in-memory buffer MSB first.
//
// The zero value is an empty reader; use NewReader. Reader is not safe for
// concurrent use.
type Reader struct {
	data []byte
	pos  int // absolute bit position from the start of data
	err  error

	// tail is a zero-padded copy of the last (up to) 8 bytes of data,
	// starting at byte tailBase, so a lookahead within 8 bytes of the end is
	// the same single 8-byte load as anywhere else.
	tail     [16]byte
	tailBase int
}

// NewReader returns a Reader over data. The Reader does not copy data (apart
// from its last 8 bytes), so data must not change while the Reader is in use.
func NewReader(data []byte) *Reader {
	r := new(Reader)
	r.Reset(data)
	return r
}

// Reset re-points the reader at data and clears position and error state.
func (r *Reader) Reset(data []byte) {
	r.data = data
	r.pos = 0
	r.err = nil
	r.tailBase = max(len(data)-8, 0)
	r.tail = [16]byte{}
	copy(r.tail[:], data[r.tailBase:])
}

// Err reports the first underflow encountered, if any.
func (r *Reader) Err() error { return r.err }

// BitPos returns the absolute bit position from the start of the buffer.
func (r *Reader) BitPos() int { return r.pos }

// SeekBit moves the read position to the absolute bit offset pos.
func (r *Reader) SeekBit(pos int) {
	if pos < 0 || pos > len(r.data)*8 {
		r.err = ErrUnderflow
		return
	}
	r.pos = pos
}

// Len returns the total length of the underlying buffer in bits.
func (r *Reader) Len() int { return len(r.data) * 8 }

// Byte-aligned reports whether the read position is on a byte boundary.
func (r *Reader) ByteAligned() bool { return r.pos&7 == 0 }

// Peek32 returns the next 32 bits, MSB first, without advancing. Bits past
// the end of the buffer read as zero and Err is not set, so VLC lookahead
// near the end of a buffer does not poison the reader. It is one 8-byte
// load and inlines: a variable-length decoder takes a codeword and all of
// its trailing fixed-width fields from one Peek32 and then advances once
// with Skip.
func (r *Reader) Peek32() uint32 {
	i := r.pos >> 3
	var b []byte
	if i+8 <= len(r.data) {
		b = r.data[i:]
	} else {
		b = r.tail[i-r.tailBase:]
	}
	return uint32(binary.BigEndian.Uint64(b) << (r.pos & 7) >> 32)
}

// Peek returns the next n bits (0 <= n <= 32) without advancing, with the
// end-of-buffer behaviour of Peek32. Widths outside [0, 32] return zero.
func (r *Reader) Peek(n int) uint32 {
	if n <= 0 || n > 32 {
		return 0
	}
	return r.Peek32() >> (32 - uint(n))
}

// Read returns the next n bits (0 <= n <= 32) and advances. On underflow it
// sets Err and returns zeros for the missing bits.
func (r *Reader) Read(n int) uint32 {
	if n < 0 || n > 32 {
		if r.err == nil {
			r.err = ErrReadSize
		}
		return 0
	}
	v := r.Peek32() >> (32 - uint(n)) // a shift by 32 yields 0 for n = 0
	r.Skip(n)
	return v
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() uint32 { return r.Read(1) }

// Skip advances the position by n bits. Negative n is rejected with
// ErrReadSize; the position never moves backwards except through SeekBit.
func (r *Reader) Skip(n int) {
	if n < 0 {
		if r.err == nil {
			r.err = ErrReadSize
		}
		return
	}
	r.pos += n
	if r.pos > len(r.data)*8 {
		r.pos = len(r.data) * 8
		if r.err == nil {
			r.err = ErrUnderflow
		}
	}
}

// AlignByte advances to the next byte boundary (no-op when already aligned).
func (r *Reader) AlignByte() {
	if rem := r.pos & 7; rem != 0 {
		r.Skip(8 - rem)
	}
}

// String describes the reader state for debugging.
func (r *Reader) String() string {
	return fmt.Sprintf("bits.Reader{pos=%d/%d err=%v}", r.pos, len(r.data)*8, r.err)
}
