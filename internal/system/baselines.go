// Package system holds the paper's reference points around the 1-k-(m,n)
// wall: the coarse-granularity baseline systems of Table 1, each simulated
// PC a goroutine attached to a cluster fabric node, and the §4.6
// calibration of split and decode costs. The wall itself is
// internal/service.
package system

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"tiledwall/internal/bits"
	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/wall"
)

// This file implements the coarse-granularity parallelisations the paper
// compares against in Table 1. All three share the display-redistribution
// stage: decoded pixels are re-sent to the node that projects them, which is
// exactly the cost that makes these schemes unattractive for tiled walls.
//
//   - GOP level: whole (closed) GOPs round-robin to decoders; no
//     inter-decoder communication; every picture redistributed.
//   - Picture level: pictures round-robin to decoders; decoders ship whole
//     reference frames to whoever needs them (very high communication);
//     every picture redistributed.
//   - Slice level: horizontal bands of whole slices per decoder; reference
//     halo strips exchanged between neighbouring bands (moderate
//     communication); the off-band part of every picture redistributed.

// BaselineLevel selects the parallelisation granularity.
type BaselineLevel int

const (
	// LevelGOP assigns whole closed GOPs to decoders.
	LevelGOP BaselineLevel = iota
	// LevelPicture assigns whole pictures to decoders.
	LevelPicture
	// LevelSlice assigns horizontal bands of slices to decoders.
	LevelSlice
)

func (l BaselineLevel) String() string {
	switch l {
	case LevelGOP:
		return "gop"
	case LevelPicture:
		return "picture"
	case LevelSlice:
		return "slice"
	}
	return fmt.Sprintf("BaselineLevel(%d)", int(l))
}

// BaselineConfig describes a baseline run. The decoder count equals the
// display tile count (M*N), as in the paper's setup where every PC both
// decodes and drives a projector.
type BaselineConfig struct {
	Level   BaselineLevel
	M, N    int
	Overlap int
	// MaxFCode bounds halo strips for slice-level decoding (default 3).
	MaxFCode      int
	Fabric        cluster.Config
	CollectFrames bool
}

// BaselineResult reports a baseline run with the Table 1 cost columns.
type BaselineResult struct {
	Config     BaselineConfig
	Throughput metrics.Throughput

	// SplitTime is total splitter CPU time (scan/cut), the "splitting cost"
	// column of Table 1.
	SplitTime time.Duration
	// InterDecoderBytes counts reference data exchanged between decoders
	// (zero at GOP level, whole frames at picture level, halo strips at
	// slice level).
	InterDecoderBytes int64
	// RedistributionBytes counts decoded pixels shipped to display nodes.
	RedistributionBytes int64

	NodeStats []cluster.LinkStats
	Frames    []*mpeg2.PixelBuf

	// DecoderBusy is each decoder's CPU time (decode + redistribution).
	DecoderBusy []time.Duration
}

// Modeled returns the pipeline-model throughput (pictures divided by the
// busiest node's CPU time), comparable with service.SessionResult.Modeled;
// see the comment there and EXPERIMENTS.md for the single-core methodology.
func (r *BaselineResult) Modeled() metrics.Throughput {
	busiest := r.SplitTime
	for _, b := range r.DecoderBusy {
		if b > busiest {
			busiest = b
		}
	}
	out := r.Throughput
	if busiest > 0 {
		out.Elapsed = busiest
	}
	return out
}

// --- pixel rectangle messages (redistribution and reference exchange) ------

const rectHeader = 4 + 2*4

func marshalRect(idx int, buf *mpeg2.PixelBuf) []byte {
	out := make([]byte, 0, rectHeader+len(buf.Y)+len(buf.Cb)+len(buf.Cr))
	out = binary.LittleEndian.AppendUint32(out, uint32(idx))
	for _, v := range []int{buf.X0, buf.Y0, buf.W, buf.H} {
		out = binary.LittleEndian.AppendUint16(out, uint16(v))
	}
	out = append(out, buf.Y...)
	out = append(out, buf.Cb...)
	out = append(out, buf.Cr...)
	return out
}

func unmarshalRect(data []byte) (int, *mpeg2.PixelBuf, error) {
	if len(data) < rectHeader {
		return 0, nil, fmt.Errorf("system: truncated rect message")
	}
	idx := int(int32(binary.LittleEndian.Uint32(data)))
	g := func(o int) int { return int(binary.LittleEndian.Uint16(data[4+2*o:])) }
	x0, y0, w, h := g(0), g(1), g(2), g(3)
	data = data[rectHeader:]
	if w <= 0 || h <= 0 || len(data) != w*h+2*(w/2)*(h/2) {
		return 0, nil, fmt.Errorf("system: rect payload size mismatch")
	}
	buf := &mpeg2.PixelBuf{X0: x0, Y0: y0, W: w, H: h}
	buf.Y = data[: w*h : w*h]
	buf.Cb = data[w*h : w*h+(w/2)*(h/2) : w*h+(w/2)*(h/2)]
	buf.Cr = data[w*h+(w/2)*(h/2):]
	return idx, buf, nil
}

// extractRect copies a tile rectangle out of a full-or-partial picture
// window.
func extractRect(src *mpeg2.PixelBuf, r wall.Rect) *mpeg2.PixelBuf {
	out := mpeg2.NewPixelBuf(r.X0, r.Y0, r.W(), r.H())
	out.CopyRect(src, r.X0, r.Y0, r.W(), r.H())
	return out
}

// --- display server ---------------------------------------------------------

// displayServer runs alongside each decoder and represents the projector
// half of the PC: it receives the redistributed pixels of its tile (remote
// via MsgPixels, local via a channel), accumulates partial rectangles until
// a display frame is complete, blits it into the display buffer, and
// optionally records it for verification. Completion is by pixel coverage,
// so a frame may arrive as one rectangle (GOP/picture level) or as several
// band slices (slice level).
type displayServer struct {
	node    *cluster.Node
	tile    wall.Rect
	total   int // display frames to complete
	local   chan localFrame
	display *mpeg2.PixelBuf

	onFrame func(displayIdx int, tile int, buf *mpeg2.PixelBuf)
	tileIdx int
}

type localFrame struct {
	displayIdx int
	buf        *mpeg2.PixelBuf // a sub-rectangle of the tile
}

func newDisplayServer(node *cluster.Node, tileIdx int, tile wall.Rect, total int, onFrame func(int, int, *mpeg2.PixelBuf)) *displayServer {
	return &displayServer{
		node:    node,
		tile:    tile,
		total:   total,
		local:   make(chan localFrame, 16),
		display: mpeg2.NewPixelBuf(tile.X0, tile.Y0, tile.W(), tile.H()),
		onFrame: onFrame,
		tileIdx: tileIdx,
	}
}

func (ds *displayServer) run() error {
	type acc struct {
		buf    *mpeg2.PixelBuf
		pixels int
	}
	want := ds.tile.W() * ds.tile.H()
	pending := map[int]*acc{}
	for completed := 0; completed < ds.total; {
		var idx int
		var buf *mpeg2.PixelBuf
		select {
		case m := <-ds.node.Queue(cluster.MsgPixels):
			var err error
			idx, buf, err = unmarshalRect(m.Payload)
			if err != nil {
				return err
			}
		case lf := <-ds.local:
			idx, buf = lf.displayIdx, lf.buf
		case <-ds.node.Done():
			return fmt.Errorf("system: display %d aborted", ds.tileIdx)
		}
		a := pending[idx]
		if a == nil {
			a = &acc{buf: mpeg2.NewPixelBuf(ds.tile.X0, ds.tile.Y0, ds.tile.W(), ds.tile.H())}
			pending[idx] = a
		}
		a.buf.CopyRect(buf, buf.X0, buf.Y0, buf.W, buf.H)
		a.pixels += buf.W * buf.H
		if a.pixels > want {
			return fmt.Errorf("system: display %d frame %d over-covered", ds.tileIdx, idx)
		}
		if a.pixels == want {
			ds.display.CopyRect(a.buf, ds.tile.X0, ds.tile.Y0, ds.tile.W(), ds.tile.H())
			if ds.onFrame != nil {
				ds.onFrame(idx, ds.tileIdx, a.buf)
			}
			delete(pending, idx)
			completed++
		}
	}
	return nil
}

// redistribute ships the part of one decoded picture that src covers to the
// display nodes, clipped to region (pass the full picture rectangle for
// whole-frame sources). Returns the remote byte count.
func redistribute(node *cluster.Node, geo *wall.Geometry, displayIdx int, src *mpeg2.PixelBuf,
	region wall.Rect, tileNode func(int) int, self *displayServer) int64 {
	var remote int64
	for t := 0; t < geo.NumTiles(); t++ {
		r, ok := geo.Tile(t).Intersect(region)
		if !ok {
			continue
		}
		if self != nil && t == self.tileIdx {
			self.local <- localFrame{displayIdx, extractRect(src, r)}
			continue
		}
		payload := marshalRect(displayIdx, extractRect(src, r))
		remote += int64(len(payload))
		node.Send(tileNode(t), &cluster.Message{Kind: cluster.MsgPixels, Seq: displayIdx, Payload: payload})
	}
	return remote
}

// displayOrder computes, for each decode-order picture index, its display
// position (the serial decoder's reordering, precomputed).
func displayOrder(types []mpeg2.PictureType) []int {
	order := make([]int, len(types))
	next := 0
	pendingAnchor := -1
	for i, t := range types {
		if t == mpeg2.PictureB {
			order[i] = next
			next++
			continue
		}
		if pendingAnchor >= 0 {
			order[pendingAnchor] = next
			next++
		}
		pendingAnchor = i
	}
	if pendingAnchor >= 0 {
		order[pendingAnchor] = next
	}
	return order
}

// RunBaseline executes one Table 1 baseline pipeline.
func RunBaseline(stream []byte, cfg BaselineConfig) (*BaselineResult, error) {
	if cfg.MaxFCode == 0 {
		cfg.MaxFCode = 3
	}
	s, err := mpeg2.ParseStream(stream)
	if err != nil {
		return nil, err
	}
	picW, picH := s.Seq.MBWidth()*16, s.Seq.MBHeight()*16
	geo, err := wall.NewGeometry(picW, picH, cfg.M, cfg.N, cfg.Overlap)
	if err != nil {
		return nil, err
	}
	switch cfg.Level {
	case LevelGOP:
		return runGOPLevel(stream, s, geo, cfg)
	case LevelPicture:
		return runPictureLevel(stream, s, geo, cfg)
	case LevelSlice:
		return runSliceLevel(s, geo, cfg)
	}
	return nil, fmt.Errorf("system: unknown baseline level %d", cfg.Level)
}

// baselineHarness wires 1 splitter node + D decoder/display nodes and runs
// the given per-role functions, collecting frames and stats.
type baselineHarness struct {
	fab       *cluster.Fabric
	geo       *wall.Geometry
	s         *mpeg2.Stream
	cfg       BaselineConfig
	collector *frameCollector
	servers   []*displayServer
	res       *BaselineResult
}

func newBaselineHarness(s *mpeg2.Stream, geo *wall.Geometry, cfg BaselineConfig) *baselineHarness {
	d := geo.NumTiles()
	h := &baselineHarness{
		fab: cluster.New(1+d, cfg.Fabric),
		geo: geo,
		s:   s,
		cfg: cfg,
		res: &BaselineResult{Config: cfg},
	}
	var onFrame func(int, int, *mpeg2.PixelBuf)
	if cfg.CollectFrames {
		h.collector = newFrameCollector(geo)
		onFrame = h.collector.onIndexedFrame
	}
	for t := 0; t < d; t++ {
		h.servers = append(h.servers, newDisplayServer(h.fab.Node(1+t), t, geo.Tile(t), len(s.Pictures), onFrame))
	}
	return h
}

func (h *baselineHarness) decoderNode(t int) int { return 1 + t }

// run launches the splitter function and one decoder function per node plus
// the display servers, waits, and finalises the result.
func (h *baselineHarness) run(split func(node *cluster.Node) error,
	decode func(t int, node *cluster.Node, ds *displayServer) error) (*BaselineResult, error) {

	defer h.fab.Shutdown()
	d := h.geo.NumTiles()
	h.res.DecoderBusy = make([]time.Duration, d)
	errs := make([]error, 1+2*d)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[0] = split(h.fab.Node(0))
		if errs[0] != nil {
			h.fab.Abort(errs[0])
		}
	}()
	for t := 0; t < d; t++ {
		t := t
		wg.Add(2)
		go func() {
			defer wg.Done()
			errs[1+t] = decode(t, h.fab.Node(h.decoderNode(t)), h.servers[t])
			if errs[1+t] != nil {
				h.fab.Abort(errs[1+t])
			}
		}()
		go func() {
			defer wg.Done()
			errs[1+d+t] = h.servers[t].run()
			if errs[1+d+t] != nil {
				h.fab.Abort(errs[1+d+t])
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if cause := h.fab.AbortCause(); cause != nil {
		return h.res, cause
	}
	for _, e := range errs {
		if e != nil {
			return h.res, e
		}
	}
	h.res.Throughput = metrics.Throughput{
		Pictures:         len(h.s.Pictures),
		Elapsed:          elapsed,
		PixelsPerPicture: int64(h.geo.PicW) * int64(h.geo.PicH),
	}
	h.res.NodeStats = h.fab.Stats()
	if h.collector != nil {
		frames, err := h.collector.assembleIndexed(len(h.s.Pictures))
		if err != nil {
			return h.res, err
		}
		h.res.Frames = frames
	}
	return h.res, nil
}

// --- GOP level ---------------------------------------------------------------

func runGOPLevel(stream []byte, s *mpeg2.Stream, geo *wall.Geometry, cfg BaselineConfig) (*BaselineResult, error) {
	h := newBaselineHarness(s, geo, cfg)
	d := geo.NumTiles()
	var redistBytes int64
	var redistMu sync.Mutex

	split := func(node *cluster.Node) error {
		// Scan GOP boundaries and count pictures per GOP (start codes only).
		t0 := time.Now()
		type gopUnit struct {
			start, end  int
			displayBase int
		}
		var gops []gopUnit
		displayBase := 0
		gopStart := -1
		gopPics := 0
		flush := func(end int) {
			if gopStart >= 0 {
				gops = append(gops, gopUnit{gopStart, end, displayBase})
				displayBase += gopPics
			}
			gopStart = -1
			gopPics = 0
		}
		for off := bits.NextStartCode(stream, 0); off >= 0; off = bits.NextStartCode(stream, off+4) {
			switch c := stream[off+3]; {
			case c == bits.GroupStartCode:
				flush(off)
				gopStart = off
			case c == bits.PictureStartCode:
				if gopStart < 0 {
					return fmt.Errorf("system: GOP-level split found a picture outside any GOP")
				}
				gopPics++
			case c == bits.SequenceEndCode, c == bits.SequenceHeaderCod && off > 0:
				flush(off)
			}
		}
		flush(len(stream))
		h.res.SplitTime += time.Since(t0)

		// Round-robin with a 2-unit credit window per decoder.
		outstanding := make([]int, d)
		for i, g := range gops {
			t := i % d
			for outstanding[t] >= 2 {
				m := node.Recv(cluster.MsgAck)
				if m == nil {
					return fmt.Errorf("system: GOP splitter aborted")
				}
				outstanding[m.From-1]--
			}
			buf := make([]byte, g.end-g.start)
			t0 = time.Now()
			copy(buf, stream[g.start:g.end])
			h.res.SplitTime += time.Since(t0)
			node.Send(h.decoderNode(t), &cluster.Message{Kind: cluster.MsgPicture, Seq: g.displayBase, Payload: buf})
			outstanding[t]++
		}
		for t := 0; t < d; t++ {
			node.Send(h.decoderNode(t), &cluster.Message{Kind: cluster.MsgPicture, Seq: -1})
		}
		return nil
	}

	decode := func(t int, node *cluster.Node, ds *displayServer) error {
		tileNode := func(tt int) int { return h.decoderNode(tt) }
		for {
			msg := node.Recv(cluster.MsgPicture)
			if msg == nil {
				return fmt.Errorf("system: GOP decoder %d aborted", t)
			}
			if msg.Seq < 0 {
				return nil
			}
			t0 := time.Now()
			units := mpeg2.IndexPictureUnits(msg.Payload)
			dec := mpeg2.NewStreamDecoder(&mpeg2.Stream{Seq: s.Seq, Pictures: units, Data: msg.Payload})
			pics, err := dec.DecodeAll()
			if err != nil {
				return fmt.Errorf("system: GOP decoder %d: %w", t, err)
			}
			full := wall.Rect{X0: 0, Y0: 0, X1: geo.PicW, Y1: geo.PicH}
			for j, p := range pics {
				n := redistribute(node, geo, msg.Seq+j, p.Buf, full, tileNode, ds)
				redistMu.Lock()
				redistBytes += n
				redistMu.Unlock()
			}
			h.res.DecoderBusy[t] += time.Since(t0)
			node.Send(0, &cluster.Message{Kind: cluster.MsgAck})
		}
	}

	res, err := h.run(split, decode)
	res.RedistributionBytes = redistBytes
	return res, err
}

// --- picture level -----------------------------------------------------------

// pictureMeta is the side information the picture-level splitter attaches to
// each picture unit.
type pictureMeta struct {
	picIdx, displayIdx int
	fwdIdx, bwdIdx     int   // decode-order indices of references (-1 none)
	consumers          []int // node ids that need this decoded frame as a reference
}

func (m *pictureMeta) marshal(unit []byte) []byte {
	out := make([]byte, 0, 18+2*len(m.consumers)+len(unit))
	out = binary.LittleEndian.AppendUint32(out, uint32(int32(m.picIdx)))
	out = binary.LittleEndian.AppendUint32(out, uint32(int32(m.displayIdx)))
	out = binary.LittleEndian.AppendUint32(out, uint32(int32(m.fwdIdx)))
	out = binary.LittleEndian.AppendUint32(out, uint32(int32(m.bwdIdx)))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(m.consumers)))
	for _, c := range m.consumers {
		out = binary.LittleEndian.AppendUint16(out, uint16(c))
	}
	return append(out, unit...)
}

func parsePictureMeta(data []byte) (*pictureMeta, []byte, error) {
	if len(data) < 18 {
		return nil, nil, fmt.Errorf("system: truncated picture meta")
	}
	m := &pictureMeta{
		picIdx:     int(int32(binary.LittleEndian.Uint32(data))),
		displayIdx: int(int32(binary.LittleEndian.Uint32(data[4:]))),
		fwdIdx:     int(int32(binary.LittleEndian.Uint32(data[8:]))),
		bwdIdx:     int(int32(binary.LittleEndian.Uint32(data[12:]))),
	}
	n := int(binary.LittleEndian.Uint16(data[16:]))
	data = data[18:]
	if len(data) < 2*n {
		return nil, nil, fmt.Errorf("system: truncated consumer list")
	}
	for i := 0; i < n; i++ {
		m.consumers = append(m.consumers, int(binary.LittleEndian.Uint16(data[2*i:])))
	}
	return m, data[2*n:], nil
}

func runPictureLevel(stream []byte, s *mpeg2.Stream, geo *wall.Geometry, cfg BaselineConfig) (*BaselineResult, error) {
	h := newBaselineHarness(s, geo, cfg)
	d := geo.NumTiles()
	var interBytes, redistBytes int64
	var mu sync.Mutex

	split := func(node *cluster.Node) error {
		t0 := time.Now()
		// Peek types (cheap: a few header bits per picture).
		types := make([]mpeg2.PictureType, len(s.Pictures))
		for i, u := range s.Pictures {
			pt, err := mpeg2.PeekPictureType(u)
			if err != nil {
				return err
			}
			types[i] = pt
		}
		disp := displayOrder(types)
		// Reference indices per picture and consumer lists per anchor.
		metas := make([]pictureMeta, len(types))
		consumers := make([][]int, len(types))
		nodeOf := func(p int) int { return h.decoderNode(p % d) }
		refA, refB := -1, -1
		for i, t := range types {
			m := &metas[i]
			m.picIdx, m.displayIdx = i, disp[i]
			m.fwdIdx, m.bwdIdx = -1, -1
			switch t {
			case mpeg2.PictureP:
				m.fwdIdx = refB
			case mpeg2.PictureB:
				m.fwdIdx, m.bwdIdx = refA, refB
			}
			for _, r := range []int{m.fwdIdx, m.bwdIdx} {
				if r >= 0 && nodeOf(r) != nodeOf(i) {
					consumers[r] = append(consumers[r], nodeOf(i))
				}
			}
			if t != mpeg2.PictureB {
				refA, refB = refB, i
			}
		}
		for i := range metas {
			metas[i].consumers = consumers[i]
		}
		h.res.SplitTime += time.Since(t0)

		outstanding := make([]int, d)
		for i, unit := range s.Pictures {
			t := i % d
			for outstanding[t] >= 2 {
				m := node.Recv(cluster.MsgAck)
				if m == nil {
					return fmt.Errorf("system: picture splitter aborted")
				}
				outstanding[m.From-1]--
			}
			t0 = time.Now()
			payload := metas[i].marshal(unit)
			h.res.SplitTime += time.Since(t0)
			node.Send(h.decoderNode(t), &cluster.Message{Kind: cluster.MsgPicture, Seq: i, Payload: payload})
			outstanding[t]++
		}
		for t := 0; t < d; t++ {
			node.Send(h.decoderNode(t), &cluster.Message{Kind: cluster.MsgPicture, Seq: -1})
		}
		return nil
	}

	decode := func(t int, node *cluster.Node, ds *displayServer) error {
		tileNode := func(tt int) int { return h.decoderNode(tt) }
		w, hgt := geo.PicW, geo.PicH
		refs := map[int]*mpeg2.PixelBuf{} // decode-index -> full frame (remote or local)
		waitRef := func(idx int) (*mpeg2.PixelBuf, error) {
			for {
				if f, ok := refs[idx]; ok {
					return f, nil
				}
				m := node.Recv(cluster.MsgSubPicture)
				if m == nil {
					return nil, fmt.Errorf("system: picture decoder %d aborted", t)
				}
				ridx, buf, err := unmarshalRect(m.Payload)
				if err != nil {
					return nil, err
				}
				refs[ridx] = buf
			}
		}
		for {
			msg := node.Recv(cluster.MsgPicture)
			if msg == nil {
				return fmt.Errorf("system: picture decoder %d aborted", t)
			}
			if msg.Seq < 0 {
				return nil
			}
			meta, unit, err := parsePictureMeta(msg.Payload)
			if err != nil {
				return err
			}
			t0 := time.Now()
			var fwd, bwd *mpeg2.PixelBuf
			if meta.fwdIdx >= 0 {
				if fwd, err = waitRef(meta.fwdIdx); err != nil {
					return err
				}
			}
			if meta.bwdIdx >= 0 {
				if bwd, err = waitRef(meta.bwdIdx); err != nil {
					return err
				}
			}
			dst := mpeg2.NewPixelBuf(0, 0, w, hgt)
			if _, err := mpeg2.DecodePictureUnit(s.Seq, unit, fwd, bwd, dst); err != nil {
				return fmt.Errorf("system: picture decoder %d pic %d: %w", t, meta.picIdx, err)
			}
			refs[meta.picIdx] = dst
			// Ship the whole frame to every consumer: the "very high"
			// communication column of Table 1.
			sentTo := map[int]bool{}
			for _, c := range meta.consumers {
				if sentTo[c] {
					continue
				}
				sentTo[c] = true
				payload := marshalRect(meta.picIdx, dst)
				mu.Lock()
				interBytes += int64(len(payload))
				mu.Unlock()
				node.Send(c, &cluster.Message{Kind: cluster.MsgSubPicture, Seq: meta.picIdx, Payload: payload})
			}
			full := wall.Rect{X0: 0, Y0: 0, X1: geo.PicW, Y1: geo.PicH}
			n := redistribute(node, geo, meta.displayIdx, dst, full, tileNode, ds)
			mu.Lock()
			redistBytes += n
			mu.Unlock()
			h.res.DecoderBusy[t] += time.Since(t0)
			node.Send(0, &cluster.Message{Kind: cluster.MsgAck})
			// Bounded reference cache: drop frames older than the window.
			for k := range refs {
				if k < meta.picIdx-3*d {
					delete(refs, k)
				}
			}
		}
	}

	res, err := h.run(split, decode)
	res.InterDecoderBytes = interBytes
	res.RedistributionBytes = redistBytes
	return res, err
}

// --- slice level --------------------------------------------------------------

func runSliceLevel(s *mpeg2.Stream, geo *wall.Geometry, cfg BaselineConfig) (*BaselineResult, error) {
	h := newBaselineHarness(s, geo, cfg)
	d := geo.NumTiles()
	mbH := s.Seq.MBHeight()
	if mbH < d {
		return nil, fmt.Errorf("system: %d bands need at least %d macroblock rows", d, mbH)
	}
	var interBytes, redistBytes int64
	var mu sync.Mutex
	haloRows := (pdecHalo(cfg.MaxFCode) + 15) / 16

	bandOf := func(t int) (int, int) { // inclusive mb-row range of band t
		r0 := t * mbH / d
		r1 := (t+1)*mbH/d - 1
		return r0, r1
	}
	// The halo-strip exchange only reaches one band over; every band must be
	// at least as tall as the motion reach.
	for t := 0; t < d; t++ {
		if r0, r1 := bandOf(t); r1-r0+1 < haloRows {
			return nil, fmt.Errorf("system: band %d is %d rows but motion reach needs %d; use fewer bands or a taller picture",
				t, r1-r0+1, haloRows)
		}
	}

	split := func(node *cluster.Node) error {
		outstanding := make([]int, d)
		for i, unit := range s.Pictures {
			// Cut the unit into per-band work units: picture header bytes +
			// the byte range of the band's slices (start codes only — the
			// "very low" splitting cost of Table 1).
			t0 := time.Now()
			type cutRange struct{ start, end int }
			cuts := make([]cutRange, d)
			for b := range cuts {
				cuts[b] = cutRange{-1, -1}
			}
			headerEnd := len(unit)
			for off := bits.NextStartCode(unit, 0); off >= 0; off = bits.NextStartCode(unit, off+3) {
				c := unit[off+3]
				if !bits.IsSliceStartCode(c) {
					continue
				}
				if headerEnd == len(unit) {
					headerEnd = off
				}
				row := int(c) - 1
				if s.Seq.Height > 2800 {
					// Tall pictures: 3-bit vertical position extension
					// immediately after the start code carries the high bits.
					ext := int(unit[off+4] >> 5)
					row = (ext << 7) + ((int(c) - 1) & 0x7F)
				}
				for b := 0; b < d; b++ {
					r0, r1 := bandOf(b)
					if row >= r0 && row <= r1 {
						if cuts[b].start < 0 {
							cuts[b].start = off
						}
						cuts[b].end = len(unit) // provisional; tightened below
					}
				}
			}
			// Tighten ends: each band's slices are contiguous, so a band's
			// range ends where the next band's begins.
			for b := 0; b < d; b++ {
				for nb := b + 1; nb < d; nb++ {
					if cuts[nb].start >= 0 {
						if cuts[b].start >= 0 {
							cuts[b].end = cuts[nb].start
						}
						break
					}
				}
			}
			h.res.SplitTime += time.Since(t0)

			for b := 0; b < d; b++ {
				for outstanding[b] >= 2 {
					m := node.Recv(cluster.MsgAck)
					if m == nil {
						return fmt.Errorf("system: slice splitter aborted")
					}
					outstanding[m.From-1]--
				}
				t0 = time.Now()
				var payload []byte
				payload = append(payload, unit[:headerEnd]...)
				if cuts[b].start >= 0 {
					payload = append(payload, unit[cuts[b].start:cuts[b].end]...)
				}
				h.res.SplitTime += time.Since(t0)
				node.Send(h.decoderNode(b), &cluster.Message{Kind: cluster.MsgPicture, Seq: i, Payload: payload})
				outstanding[b]++
			}
		}
		for b := 0; b < d; b++ {
			node.Send(h.decoderNode(b), &cluster.Message{Kind: cluster.MsgPicture, Seq: -1})
		}
		return nil
	}

	decode := func(t int, node *cluster.Node, ds *displayServer) error {
		tileNode := func(tt int) int { return h.decoderNode(tt) }
		r0, r1 := bandOf(t)
		y0 := r0 * 16
		y1 := (r1 + 1) * 16
		// Extended windows: band plus halo strips above and below.
		ey0, ey1 := y0-haloRows*16, y1+haloRows*16
		if ey0 < 0 {
			ey0 = 0
		}
		if ey1 > geo.PicH {
			ey1 = geo.PicH
		}
		newBuf := func() *mpeg2.PixelBuf { return mpeg2.NewPixelBuf(0, ey0, geo.PicW, ey1-ey0) }
		bufs := []*mpeg2.PixelBuf{newBuf(), newBuf(), newBuf()}
		cur, refA, refB := 0, -1, -1

		// Display reordering state (mirrors the serial decoder).
		nextDisp := 0
		var held *mpeg2.PixelBuf
		band := wall.Rect{X0: 0, Y0: y0, X1: geo.PicW, Y1: y1}
		emit := func(buf *mpeg2.PixelBuf) {
			n := redistribute(node, geo, nextDisp, buf, band, tileNode, ds)
			mu.Lock()
			redistBytes += n
			mu.Unlock()
			nextDisp++
		}

		// exchange sends this band's edge strips of the just-decoded anchor
		// to its neighbours, tagged with the anchor's decode index.
		exchange := func(picIdx int, buf *mpeg2.PixelBuf) {
			for _, nb := range []int{t - 1, t + 1} {
				if nb < 0 || nb >= d {
					continue
				}
				var sy int
				if nb < t {
					sy = y0 // top strip
				} else {
					sy = y1 - haloRows*16
				}
				strip := mpeg2.NewPixelBuf(0, sy, geo.PicW, haloRows*16)
				strip.CopyRect(buf, 0, sy, geo.PicW, haloRows*16)
				payload := marshalRect(picIdx, strip)
				mu.Lock()
				interBytes += int64(len(payload))
				mu.Unlock()
				node.Send(h.decoderNode(nb), &cluster.Message{Kind: cluster.MsgHalo, Seq: picIdx, Payload: payload})
			}
		}
		// expect strips for the given anchor into the given buffer.
		stash := map[int][]*mpeg2.PixelBuf{}
		collect := func(picIdx int, into *mpeg2.PixelBuf, want int) error {
			apply := func(buf *mpeg2.PixelBuf) {
				into.CopyRect(buf, buf.X0, buf.Y0, buf.W, buf.H)
			}
			for _, b := range stash[picIdx] {
				apply(b)
				want--
			}
			delete(stash, picIdx)
			for want > 0 {
				m := node.Recv(cluster.MsgHalo)
				if m == nil {
					return fmt.Errorf("system: band %d aborted waiting for halo", t)
				}
				idx, buf, err := unmarshalRect(m.Payload)
				if err != nil {
					return err
				}
				if idx == picIdx {
					apply(buf)
					want--
				} else {
					stash[idx] = append(stash[idx], buf)
				}
			}
			return nil
		}
		neighbours := 0
		if t > 0 {
			neighbours++
		}
		if t < d-1 {
			neighbours++
		}

		for {
			msg := node.Recv(cluster.MsgPicture)
			if msg == nil {
				return fmt.Errorf("system: band decoder %d aborted", t)
			}
			if msg.Seq < 0 {
				if held != nil {
					emit(held)
					held = nil
				}
				return nil
			}
			picIdx := msg.Seq
			t0 := time.Now()
			pt, err := mpeg2.PeekPictureType(msg.Payload)
			if err != nil {
				return err
			}
			var fwd, bwd *mpeg2.PixelBuf
			switch pt {
			case mpeg2.PictureP:
				if refB < 0 {
					return fmt.Errorf("system: band %d: P before anchor", t)
				}
				fwd = bufs[refB]
			case mpeg2.PictureB:
				if refA < 0 || refB < 0 {
					return fmt.Errorf("system: band %d: B without two anchors", t)
				}
				fwd, bwd = bufs[refA], bufs[refB]
			}
			dst := bufs[cur]
			if _, err := mpeg2.DecodePictureUnitBand(s.Seq, msg.Payload, fwd, bwd, dst, r0, r1); err != nil {
				return fmt.Errorf("system: band %d pic %d: %w", t, picIdx, err)
			}
			bandView := mpeg2.NewPixelBuf(0, y0, geo.PicW, y1-y0)
			bandView.CopyRect(dst, 0, y0, geo.PicW, y1-y0)
			h.res.DecoderBusy[t] += time.Since(t0)
			node.Send(0, &cluster.Message{Kind: cluster.MsgAck})

			if pt == mpeg2.PictureB {
				emit(bandView)
			} else {
				// Exchange halo strips of the new anchor, then collect the
				// neighbours' strips into it before it is used as reference.
				exchange(picIdx, dst)
				if err := collect(picIdx, dst, neighbours); err != nil {
					return err
				}
				if held != nil {
					emit(held)
				}
				held = bandView
				old := refA
				refA, refB = refB, cur
				if old >= 0 {
					cur = old
				} else {
					for i := 0; i < 3; i++ {
						if i != refA && i != refB {
							cur = i
						}
					}
				}
			}
		}
	}

	res, err := h.run(split, decode)
	res.InterDecoderBytes = interBytes
	res.RedistributionBytes = redistBytes
	return res, err
}

// pdecHalo mirrors pdec.HaloForFCode without importing pdec (avoiding an
// import cycle is not the issue — keeping baselines self-contained is).
func pdecHalo(fcode int) int {
	if fcode < 1 {
		fcode = 1
	}
	reach := (16 << uint(fcode-1)) / 2
	return (reach + 16 + 15) &^ 15
}

// frameCollector gathers per-tile display frames, which baseline display
// servers receive out of order, and assembles them.
type frameCollector struct {
	mu    sync.Mutex
	geo   *wall.Geometry
	tiles [][]*mpeg2.PixelBuf // [tile][display index]
}

func newFrameCollector(geo *wall.Geometry) *frameCollector {
	return &frameCollector{geo: geo, tiles: make([][]*mpeg2.PixelBuf, geo.NumTiles())}
}

// onIndexedFrame stores a tile frame at its display index.
func (fc *frameCollector) onIndexedFrame(displayIdx, tile int, buf *mpeg2.PixelBuf) {
	fc.mu.Lock()
	for len(fc.tiles[tile]) <= displayIdx {
		fc.tiles[tile] = append(fc.tiles[tile], nil)
	}
	fc.tiles[tile][displayIdx] = buf
	fc.mu.Unlock()
}

// assembleIndexed assembles exactly total frames, requiring every slot to be
// filled.
func (fc *frameCollector) assembleIndexed(total int) ([]*mpeg2.PixelBuf, error) {
	row := make([]*mpeg2.PixelBuf, len(fc.tiles))
	var frames []*mpeg2.PixelBuf
	for i := 0; i < total; i++ {
		for t := range fc.tiles {
			if i >= len(fc.tiles[t]) || fc.tiles[t][i] == nil {
				return nil, fmt.Errorf("system: tile %d missing display frame %d", t, i)
			}
			row[t] = fc.tiles[t][i]
		}
		f, err := fc.geo.Assemble(row)
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}
