package conformance

import (
	"bytes"
	"fmt"

	"tiledwall/internal/mpeg2"
	"tiledwall/internal/service"
	"tiledwall/internal/video"
	"tiledwall/internal/wall"
)

// Divergence pinpoints the first byte-level disagreement between the serial
// reference decode and a parallel decode: display-order frame, macroblock
// coordinates, and the tile that owned the macroblock under the geometry in
// force — the unit of blame for the parallel protocol.
type Divergence struct {
	Frame      int // display-order picture index (-1: frame count mismatch)
	RefFrames  int
	GotFrames  int
	MBX, MBY   int
	Tile       int // owning tile under the run's geometry
	LumaDiff   int // max abs luma difference within the whole frame
	ChromaDiff int
}

func (d *Divergence) String() string {
	if d.Frame < 0 {
		return fmt.Sprintf("frame count mismatch: serial %d, parallel %d", d.RefFrames, d.GotFrames)
	}
	return fmt.Sprintf("first divergence at frame %d, macroblock (%d,%d), tile %d (frame max diff luma %d chroma %d)",
		d.Frame, d.MBX, d.MBY, d.Tile, d.LumaDiff, d.ChromaDiff)
}

// Diff compares the serial reference frames against parallel output frames
// and returns the minimised first divergence, or nil when the decodes are
// byte-for-byte identical. geo maps the divergent macroblock to its owning
// tile; it may be nil when no tiling applies.
func Diff(ref []mpeg2.DecodedPicture, got []*mpeg2.PixelBuf, geo *wall.Geometry) *Divergence {
	if len(ref) != len(got) {
		return &Divergence{Frame: -1, RefFrames: len(ref), GotFrames: len(got)}
	}
	var ra, ga [mpeg2.MacroblockBytes]byte
	for i := range ref {
		if video.Equal(ref[i].Buf, got[i]) {
			continue
		}
		d := &Divergence{Frame: i, MBX: -1, MBY: -1, Tile: -1}
		d.LumaDiff, d.ChromaDiff = video.MaxAbsDiff(ref[i].Buf, got[i])
		// Minimise: scan macroblocks in raster order for the first that
		// differs, then attribute it to its owning tile.
		mbw, mbh := ref[i].Buf.W/16, ref[i].Buf.H/16
	scan:
		for mby := 0; mby < mbh; mby++ {
			for mbx := 0; mbx < mbw; mbx++ {
				ref[i].Buf.ExtractMacroblock(mbx, mby, ra[:])
				got[i].ExtractMacroblock(mbx, mby, ga[:])
				if !bytes.Equal(ra[:], ga[:]) {
					d.MBX, d.MBY = mbx, mby
					if geo != nil {
						d.Tile = geo.Owner(mbx, mby)
					}
					break scan
				}
			}
		}
		return d
	}
	return nil
}

// MatrixResult is the outcome of one parallel configuration in RunMatrix.
type MatrixResult struct {
	Config     service.Config
	Err        error       // pipeline failure, if any
	Divergence *Divergence // nil when bit-exact with serial
}

// Name renders the configuration in the paper's 1-k-(m,n) notation.
func (r MatrixResult) Name() string {
	name := fmt.Sprintf("1-%d-(%d,%d)ov%d", r.Config.K, r.Config.M, r.Config.N, r.Config.Overlap)
	if r.Config.Pooled {
		name += "+pooled"
	}
	if r.Config.SplitWorkers > 0 {
		name += fmt.Sprintf("+sw%d", r.Config.SplitWorkers)
	}
	return name
}

// DefaultMatrix is the conformance configuration sweep: one-level and
// two-level systems, asymmetric grids, varying splitter fan-out, and a
// projector-overlap geometry. Each representative shape also runs with
// buffer/slab pooling enabled, so the zero-allocation hot path is held to
// the same bit-exactness oracle as the allocating one.
func DefaultMatrix() []service.Config {
	return []service.Config{
		{K: 0, M: 1, N: 1},
		{K: 0, M: 2, N: 2},
		{K: 1, M: 2, N: 1},
		{K: 1, M: 2, N: 2},
		{K: 2, M: 2, N: 2},
		{K: 2, M: 3, N: 2},
		{K: 3, M: 2, N: 2, Overlap: 16},
		{K: 4, M: 2, N: 2},
		// Pooled axis: same decode must fall out of recycled slabs and
		// scratch state, byte for byte.
		{K: 0, M: 1, N: 1, Pooled: true},
		{K: 0, M: 2, N: 2, Pooled: true},
		{K: 2, M: 2, N: 2, Pooled: true},
		{K: 3, M: 2, N: 2, Overlap: 16, Pooled: true},
		// Split-workers axis: the slice-parallel splitter against the same
		// oracle, serial path and fan-outs beyond the slice count included,
		// with and without accumulator reuse, on the overlap geometry too.
		{K: 2, M: 2, N: 2, SplitWorkers: 1},
		{K: 2, M: 2, N: 2, SplitWorkers: 4},
		{K: 1, M: 2, N: 2, Pooled: true, SplitWorkers: 2},
		{K: 3, M: 2, N: 2, Overlap: 16, SplitWorkers: 4},
	}
}

// RunMatrix decodes stream serially once, then under every configuration,
// and reports per-configuration divergence. The serial decode error, if any,
// is returned directly: a stream the reference decoder rejects has no oracle
// value.
func RunMatrix(stream []byte, configs []service.Config) ([]MatrixResult, error) {
	dec, err := mpeg2.NewDecoder(stream)
	if err != nil {
		return nil, fmt.Errorf("conformance: serial parse: %w", err)
	}
	ref, err := dec.DecodeAll()
	if err != nil {
		return nil, fmt.Errorf("conformance: serial decode: %w", err)
	}
	picW, picH := dec.Seq().MBWidth()*16, dec.Seq().MBHeight()*16

	out := make([]MatrixResult, 0, len(configs))
	for _, cfg := range configs {
		cfg.CollectFrames = true
		mr := MatrixResult{Config: cfg}
		res, err := service.Run(stream, cfg)
		if err != nil {
			mr.Err = err
		} else {
			geo, gerr := wall.NewGeometry(picW, picH, cfg.M, cfg.N, cfg.Overlap)
			if gerr != nil {
				geo = nil
			}
			mr.Divergence = Diff(ref, res.Frames, geo)
		}
		out = append(out, mr)
	}
	return out, nil
}
