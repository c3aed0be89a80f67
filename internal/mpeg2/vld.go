package mpeg2

import (
	"fmt"

	"tiledwall/internal/bits"
)

// PictureContext bundles the per-picture parameters needed to parse slices.
// It is shared by the serial decoder, the second-level splitter and the tile
// decoders.
type PictureContext struct {
	Seq *SequenceHeader
	Pic *PictureHeader

	MBW, MBH int // picture size in macroblocks

	scan     *[64]int
	intraDCT *dctTable
}

// NewPictureContext validates pic against the supported subset and returns a
// context.
func NewPictureContext(seq *SequenceHeader, pic *PictureHeader) (*PictureContext, error) {
	ctx := new(PictureContext)
	if err := ctx.Init(seq, pic); err != nil {
		return nil, err
	}
	return ctx, nil
}

// Init (re)initialises the context in place for a new picture, so pooled
// decode paths can keep one PictureContext per goroutine across pictures.
func (c *PictureContext) Init(seq *SequenceHeader, pic *PictureHeader) error {
	if seq == nil || pic == nil {
		return syntaxErrf("nil sequence or picture header")
	}
	if pic.PictureStructure != 3 {
		return fmt.Errorf("%w: field pictures", errUnsupported)
	}
	// Headers reconstituted from wire messages (subpic.PicInfo) may carry
	// arbitrary bytes; validate everything the decode path indexes or shifts
	// with.
	if pic.PicType < PictureI || pic.PicType > PictureB {
		return syntaxErrf("picture coding type %d", int(pic.PicType))
	}
	if pic.IntraDCPrecision < 0 || pic.IntraDCPrecision > 3 {
		return syntaxErrf("intra_dc_precision %d", pic.IntraDCPrecision)
	}
	*c = PictureContext{
		Seq:  seq,
		Pic:  pic,
		MBW:  seq.MBWidth(),
		MBH:  seq.MBHeight(),
		scan: ScanOrder(pic.AlternateScan),
	}
	if pic.IntraVLCFormat {
		c.intraDCT = dctTableB15
	} else {
		c.intraDCT = dctTableB14
	}
	return nil
}

func (c *PictureContext) mbTypeTable() *vlcTable {
	switch c.Pic.PicType {
	case PictureI:
		return mbTypeITable
	case PictureP:
		return mbTypePTable
	default:
		return mbTypeBTable
	}
}

// SliceDecoder parses the macroblocks of one (possibly partial) slice.
//
// A full slice is created with NewSliceDecoder, positioned just after the
// 32-bit slice start code; it ends when the next start code is reached. A
// partial slice (a sub-picture piece) is created with NewPartialSliceDecoder
// seeded from SPH state; it ends after a known number of coded macroblocks.
type SliceDecoder struct {
	ctx *PictureContext
	r   *bits.Reader

	state      PredState
	prevMotion MotionInfo

	mbAddr int // address of the previous coded macroblock
	first  bool

	// Partial-slice mode.
	partial       bool
	remaining     int // coded macroblocks left
	firstAddr     int // address override for the first macroblock
	parseOnly     bool
	scratchBlocks [6][64]int32
}

// NewSliceDecoder starts a full slice. r must be positioned immediately
// after the slice start code; verticalPos is the 1-based macroblock row from
// the start code value (plus slice_vertical_position_extension when the
// picture is taller than 2800 lines, which the caller handles by passing the
// combined value).
func NewSliceDecoder(ctx *PictureContext, r *bits.Reader, verticalPos int) (*SliceDecoder, error) {
	d := new(SliceDecoder)
	if err := d.ResetFull(ctx, r, verticalPos); err != nil {
		return nil, err
	}
	return d, nil
}

// ResetFull re-arms the decoder for a full slice, reusing its scratch block
// storage. Semantics match NewSliceDecoder.
func (d *SliceDecoder) ResetFull(ctx *PictureContext, r *bits.Reader, verticalPos int) error {
	if verticalPos < 1 || verticalPos > ctx.MBH {
		return syntaxErrf("slice vertical position %d of %d", verticalPos, ctx.MBH)
	}
	d.reset(ctx, r)
	d.mbAddr = (verticalPos-1)*ctx.MBW - 1
	d.state.ResetDC(ctx.Pic.IntraDCPrecision)
	d.state.ResetMV()
	d.state.QuantCode = int(r.Read(5))
	if d.state.QuantCode == 0 {
		return syntaxErrf("quantiser_scale_code 0 in slice header")
	}
	// extra_bit_slice / extra_information_slice
	for r.ReadBit() == 1 {
		r.Read(8)
	}
	return streamErr(r.Err())
}

// reset clears everything but the scratch block storage (whose contents are
// never read before being written).
func (d *SliceDecoder) reset(ctx *PictureContext, r *bits.Reader) {
	d.ctx = ctx
	d.r = r
	d.state = PredState{}
	d.prevMotion = MotionInfo{}
	d.mbAddr = 0
	d.first = true
	d.partial = false
	d.remaining = 0
	d.firstAddr = 0
	d.parseOnly = false
}

// NewPartialSliceDecoder starts a partial slice seeded with predictor state
// (from an SPH). r must be positioned at the first macroblock's address
// increment. codedCount macroblocks will be parsed; the first one's address
// is forced to firstAddr regardless of its parsed increment. When parseOnly
// is set, coefficient blocks are parsed but not retained or dequantised.
func NewPartialSliceDecoder(ctx *PictureContext, r *bits.Reader, st PredState, prev MotionInfo, firstAddr, codedCount int) *SliceDecoder {
	d := new(SliceDecoder)
	d.ResetPartial(ctx, r, st, prev, firstAddr, codedCount)
	return d
}

// ResetPartial re-arms the decoder for a partial slice, reusing its scratch
// block storage. Semantics match NewPartialSliceDecoder.
func (d *SliceDecoder) ResetPartial(ctx *PictureContext, r *bits.Reader, st PredState, prev MotionInfo, firstAddr, codedCount int) {
	d.reset(ctx, r)
	d.state = st
	d.prevMotion = prev
	d.partial = true
	d.remaining = codedCount
	d.firstAddr = firstAddr
}

// SetParseOnly makes the coefficient parse store nothing (it still runs every
// syntax check and reports the same bit boundaries, CBP, AC masks and
// errors); used by the splitter, which only needs bit boundaries and state
// snapshots.
func (d *SliceDecoder) SetParseOnly(v bool) { d.parseOnly = v }

// State returns the current prediction state (after the last parsed
// macroblock).
func (d *SliceDecoder) State() PredState { return d.state }

// PrevMotion returns the motion summary of the most recently parsed coded
// macroblock.
func (d *SliceDecoder) PrevMotion() MotionInfo { return d.prevMotion }

// atSliceEnd reports whether the reader has reached the end of the slice: a
// run of at least 23 zero bits marks the byte-stuffing before the next start
// code, and when fewer bits remain (the indexed picture unit excludes the
// following start code) the slice ends once only alignment zeros are left.
// Bits past the end of the buffer read as zero, so one lookahead covers both.
func (d *SliceDecoder) atSliceEnd() bool {
	return d.r.Peek32() < 1<<(32-23)
}

// Next parses the next coded macroblock into mb. It returns false at the end
// of the slice (or when the partial slice's macroblock budget is exhausted).
func (d *SliceDecoder) Next(mb *Macroblock) (bool, error) {
	if d.partial {
		if d.remaining == 0 {
			return false, nil
		}
	} else if d.atSliceEnd() {
		return false, nil
	}

	r := d.r
	pic := d.ctx.Pic
	mb.BitStart = r.BitPos()

	// macroblock_address_increment with escapes.
	increment := 0
	for {
		v, ok := mbAddrIncTable.decode(r)
		if !ok {
			return false, syntaxErrf("bad macroblock_address_increment at bit %d", r.BitPos())
		}
		if v == mbAddrIncEscapeVal {
			increment += 33
			continue
		}
		increment += v
		break
	}

	if d.first && d.partial {
		// The parsed increment belongs to the original picture-wide
		// addressing; the SPH supplies this piece's first address.
		mb.Addr = d.firstAddr
		mb.SkippedBefore = 0
	} else {
		mb.Addr = d.mbAddr + increment
		mb.SkippedBefore = increment - 1
		if d.first {
			// Slice start: "skipped" macroblocks before the first coded one
			// do not exist; the increment only sets the column.
			mb.SkippedBefore = 0
		}
	}
	if mb.Addr < 0 || mb.Addr >= d.ctx.MBW*d.ctx.MBH {
		return false, syntaxErrf("macroblock address %d out of picture", mb.Addr)
	}

	// Skipped-run state resets (§7.6.6): DC predictors always reset; motion
	// predictors reset in P pictures.
	if mb.SkippedBefore > 0 {
		d.state.ResetDC(pic.IntraDCPrecision)
		if pic.PicType == PictureP {
			d.state.ResetMV()
		}
	}

	mb.StateBefore = d.state
	mb.PrevMotion = d.prevMotion

	// macroblock_modes.
	flags, ok := d.ctx.mbTypeTable().decode(r)
	if !ok {
		return false, syntaxErrf("bad macroblock_type at bit %d", r.BitPos())
	}
	mb.Flags = flags
	// frame_pred_frame_dct == 1 is enforced at header parse, so neither
	// frame_motion_type nor dct_type is present.

	if flags&MBQuant != 0 {
		q := int(r.Read(5))
		if q == 0 {
			return false, syntaxErrf("quantiser_scale_code 0 in macroblock")
		}
		d.state.QuantCode = q
	}
	mb.QuantCode = d.state.QuantCode

	// Motion vectors.
	if flags&MBMotionFwd != 0 {
		if err := d.motionVector(0, &mb.MVFwd); err != nil {
			return false, err
		}
	}
	if flags&MBMotionBwd != 0 {
		if err := d.motionVector(1, &mb.MVBwd); err != nil {
			return false, err
		}
	}
	if flags&MBIntra == 0 && flags&MBMotionFwd == 0 && pic.PicType == PictureP {
		// "No MC, coded": zero forward vector, predictors reset.
		d.state.ResetMV()
		mb.MVFwd = [2]int32{}
		mb.Flags |= MBMotionFwd
	}
	if flags&MBIntra != 0 {
		// Intra macroblocks reset the motion predictors (no concealment MVs
		// in the supported subset).
		d.state.ResetMV()
	} else {
		// Non-intra macroblocks reset the DC predictors.
		d.state.ResetDC(pic.IntraDCPrecision)
	}

	// Coded block pattern.
	switch {
	case flags&MBIntra != 0:
		mb.CBP = 63
	case flags&MBPattern != 0:
		cbp, ok := cbpTable.decode(r)
		if !ok {
			return false, syntaxErrf("bad coded_block_pattern at bit %d", r.BitPos())
		}
		if cbp == 0 {
			return false, syntaxErrf("coded_block_pattern 0 in 4:2:0")
		}
		mb.CBP = cbp
	default:
		mb.CBP = 0
	}

	// Blocks. The buffer is owned by the SliceDecoder and reused across
	// macroblocks: callers must consume mb.Blocks before the next call to
	// Next (both the serial decoder and the tile decoders reconstruct each
	// macroblock immediately).
	blocks := &d.scratchBlocks
	if d.parseOnly {
		mb.Blocks = nil
	} else {
		mb.Blocks = blocks
	}
	for i := 0; i < 6; i++ {
		mb.ACMask[i] = 0
		if mb.CBP&(1<<uint(5-i)) == 0 {
			continue
		}
		blk := &blocks[i]
		if !d.parseOnly {
			*blk = [64]int32{}
		}
		var mask uint8
		var err error
		if flags&MBIntra != 0 {
			mask, err = d.intraBlock(i, blk)
		} else {
			mask, err = d.nonIntraBlock(blk)
		}
		if err != nil {
			return false, err
		}
		mb.ACMask[i] = mask
	}

	mb.BitEnd = r.BitPos()
	d.mbAddr = mb.Addr
	// Field by field rather than d.prevMotion = mb.Motion(): the composite
	// literal is built on the stack with byte stores and then copied with
	// wider loads, a store-forwarding stall on every macroblock.
	pm := &d.prevMotion
	pm.Fwd = mb.Flags&MBMotionFwd != 0
	pm.Bwd = mb.Flags&MBMotionBwd != 0
	pm.MVFwd = mb.MVFwd
	pm.MVBwd = mb.MVBwd
	d.first = false
	if d.partial {
		d.remaining--
	}
	return true, streamErr(r.Err())
}

// motionVector decodes the motion vector for direction s (0 fwd, 1 bwd)
// under frame prediction and reconstructs it against the predictors.
func (d *SliceDecoder) motionVector(s int, out *[2]int32) error {
	pic := d.ctx.Pic
	for t := 0; t < 2; t++ {
		fcode := pic.FCode[s][t]
		if fcode < 1 || fcode > 9 {
			return syntaxErrf("f_code[%d][%d]=%d out of range", s, t, fcode)
		}
		rSize := uint(fcode - 1)
		// motion_code, its sign and motion_residual (at most 11 + 1 + 8
		// bits) come from one lookahead.
		look := d.r.Peek32()
		e := motionCodeTable.lookup(look)
		if e.len == 0 {
			return syntaxErrf("bad motion_code at bit %d", d.r.BitPos())
		}
		used := uint(e.len)
		var delta int32
		if mag := int32(e.val); mag != 0 {
			neg := look<<used>>31 == 1
			used++
			residual := int32(look << used >> (32 - rSize))
			used += rSize
			delta = (mag-1)<<rSize + residual + 1
			if neg {
				delta = -delta
			}
		}
		d.r.Skip(int(used))
		f := int32(1) << rSize
		high := 16*f - 1
		low := -16 * f
		rng := 32 * f
		v := d.state.PMV[0][s][t] + delta
		if v < low {
			v += rng
		} else if v > high {
			v -= rng
		}
		d.state.PMV[0][s][t] = v
		d.state.PMV[1][s][t] = v // frame prediction updates both
		out[t] = v
	}
	return nil
}

// intraBlock parses intra block i (0..3 luma, 4 Cb, 5 Cr). Unless the
// decoder is parse-only it writes each coefficient into blk (zeroed by the
// caller) already dequantised and saturated, keeping the mismatch-control
// parity as it goes; a parse-only decoder stores nothing but runs every
// check. The returned mask is the block's conservative AC occupancy (see
// ACMask).
func (d *SliceDecoder) intraBlock(i int, blk *[64]int32) (uint8, error) {
	r := d.r
	pic := d.ctx.Pic
	comp := 0
	table := dcSizeLumaTable
	if i >= 4 {
		comp = i - 3
		table = dcSizeChromaTable
	}
	// dct_dc_size and the dc_dct_differential that follows it (at most
	// 10 + 11 bits) come from one lookahead.
	look := r.Peek32()
	e := table.lookup(look)
	if e.len == 0 {
		return 0, syntaxErrf("bad dct_dc_size at bit %d", r.BitPos())
	}
	size := uint(e.val)
	var diff int32
	if size > 0 {
		v := int32(look << e.len >> (32 - size))
		if v < 1<<(size-1) {
			diff = v - (1 << size) + 1
		} else {
			diff = v
		}
	}
	r.Skip(int(e.len) + int(size))
	d.state.DCPred[comp] += diff

	store := !d.parseOnly
	w := &d.ctx.Seq.IntraQ
	qs2 := 2 * QuantiserScale(d.state.QuantCode, pic.QScaleType)
	var parity int32
	if store {
		dc := d.state.DCPred[comp] << pic.DCShift()
		blk[0] = dc
		parity = dc
	}

	var mask uint8
	tab := d.ctx.intraDCT
	scan := d.ctx.scan
	n := 1
	for {
		run, level, eob, ok := tab.decode(r)
		if !ok {
			return 0, syntaxErrf("bad intra DCT code at bit %d", r.BitPos())
		}
		if eob {
			break
		}
		n += run
		if n > 63 {
			return 0, syntaxErrf("intra DCT run past block end")
		}
		p := scan[n]
		mask |= 1 << uint(p>>3) // n >= 1, so p != 0 (scan is a permutation)
		if store {
			v := saturateCoeff(int32(level) * int32(w[p]) * qs2 / 32)
			blk[p] = v
			parity ^= v
		}
		n++
	}
	if store {
		mismatchControl(blk, parity, &mask)
	}
	return mask, streamErr(r.Err())
}

// nonIntraBlock parses a non-intra block with the storage and dequantisation
// rules of intraBlock. The returned mask is the block's conservative AC
// occupancy (see ACMask).
func (d *SliceDecoder) nonIntraBlock(blk *[64]int32) (uint8, error) {
	r := d.r
	store := !d.parseOnly
	w := &d.ctx.Seq.NonIntraQ
	qs := QuantiserScale(d.state.QuantCode, d.ctx.Pic.QScaleType)
	var parity int32

	var mask uint8
	scan := d.ctx.scan
	n := 0
	// The first coefficient of a non-intra block cannot be EOB, which frees
	// the 1-bit code "1" for run 0 / level 1.
	tab := dctTableB14First
	for {
		run, level, eob, ok := tab.decode(r)
		tab = dctTableB14
		if !ok {
			return 0, syntaxErrf("bad DCT code at bit %d", r.BitPos())
		}
		if eob {
			break
		}
		n += run
		if n > 63 {
			return 0, syntaxErrf("DCT run past block end")
		}
		// Position 0 is the DC term, carried by blk[0] itself rather than the
		// AC mask (non-intra coefficient 0 lands there via scan[0]).
		p := scan[n]
		if p != 0 {
			mask |= 1 << uint(p>>3)
		}
		if store {
			// level is never zero: escapes with level 0 are rejected.
			k := 2*int32(level) + 1
			if level < 0 {
				k -= 2
			}
			v := saturateCoeff(k * int32(w[p]) * qs / 32)
			blk[p] = v
			parity ^= v
		}
		n++
	}
	if store {
		mismatchControl(blk, parity, &mask)
	}
	return mask, streamErr(r.Err())
}

// mismatchControl applies §7.4.4 to a dequantised block whose coefficients
// XOR to parity: when their sum is even, the LSB of coefficient 63 toggles.
// A toggle may turn qf[63] from zero to one, which the AC mask then records.
func mismatchControl(blk *[64]int32, parity int32, mask *uint8) {
	if parity&1 == 0 {
		blk[63] ^= 1
	}
	if blk[63] != 0 {
		*mask |= 0x80
	}
}
