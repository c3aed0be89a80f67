package main

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"tiledwall"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/pdec"
	"tiledwall/internal/splitter"
)

// workload is one set of inputs and one wall the benchmark runs.
type workload struct {
	Name      string
	K, M, N   int
	Transport string
	Recovery  bool
	// Rate paces every feeder at this many pictures per second (open loop).
	// Zero runs one feeder in a closed loop of back-to-back sessions.
	Rate  float64
	Feeds []feedSpec
}

// feedSpec is what one feeder plays.
type feedSpec struct {
	Stream streamSpec
	// Sub subscribes the inclusive tile rectangle {row0, col0, row1, col1};
	// nil watches the whole wall.
	Sub []int
}

// Every generated stream is six one-GOP clips of 12 pictures: one seed's
// scene (how many objects, how large, where) moves the decode cost by tens
// of percent, and six scenes per stream average most of that out.
const (
	clipFrames = 12
	clips      = 6
)

var workloads = []workload{
	{
		Name: "hd-2x2", K: 2, M: 2, N: 2,
		Feeds: []feedSpec{{Stream: streamSpec{ID: 8, Scale: 1, Frames: clipFrames, Clips: clips}}},
	},
	{
		Name: "orion-6x4-tcp", K: 2, M: 6, N: 4, Transport: "tcp",
		Feeds: []feedSpec{{Stream: streamSpec{ID: 13, Scale: 2, Frames: clipFrames, Clips: clips}}},
	},
	{
		Name: "live-6x4-paced", K: 2, M: 6, N: 4, Recovery: true, Rate: 30,
		Feeds: []feedSpec{
			{Stream: streamSpec{ID: 8, Scale: 1, Frames: clipFrames, Clips: clips}},
			{Stream: streamSpec{ID: 9, Scale: 1, Frames: clipFrames, Clips: clips}, Sub: []int{1, 2, 2, 3}},
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runner drives one workload's wall through the public façade.
type runner struct {
	wl      *workload
	epoch   time.Time
	disp    *display
	tr      *tracer // nil in the untraced run
	streams []*stream
	oracles []*oracle
	subs    [][]int // per feed: subscribed tiles, nil for all
	wall    *tiledwall.Wall
	names   atomic.Int64
}

// newRunner checks every feed's stream against the serial decoder up front.
// The streams are indexed like wl.Feeds.
func newRunner(wl *workload, streams []*stream, tr *tracer, epoch time.Time) (*runner, error) {
	r := &runner{wl: wl, epoch: epoch, disp: newDisplay(epoch), tr: tr, streams: streams}
	for i, f := range wl.Feeds {
		or, err := buildOracle(streams[i], wl.M, wl.N)
		if err != nil {
			return nil, err
		}
		r.oracles = append(r.oracles, or)
		var sub []int
		if f.Sub != nil {
			for row := f.Sub[0]; row <= f.Sub[2]; row++ {
				for col := f.Sub[1]; col <= f.Sub[3]; col++ {
					sub = append(sub, row*wl.M+col)
				}
			}
		}
		r.subs = append(r.subs, sub)
	}
	return r, nil
}

func (r *runner) now() int64 { return int64(time.Since(r.epoch)) }

// config is the wall every workload runs: pooled buffers, serial slice
// parsing in each splitter, and the display hook checking every tile. The
// stall watchdog turns a protocol deadlock into an error instead of a hang.
func (r *runner) config() tiledwall.WallConfig {
	cfg := tiledwall.WallConfig{
		K: r.wl.K, M: r.wl.M, N: r.wl.N,
		Transport:    r.wl.Transport,
		Pooled:       true,
		SplitWorkers: 1,
		OnTileFrame:  r.disp.onTile,
	}
	cfg.Fabric.StallTimeout = 30 * time.Second
	cfg.Recovery.Enabled = r.wl.Recovery
	return cfg
}

// live is a session being fed.
type live struct {
	feed   int
	sess   *tiledwall.Session
	watch  *watch
	span   span
	opened int64   // ns since epoch when Open was called
	due    []int64 // per unit: ns since epoch the unit was due to be fed
	lag    []int64 // paced feeds: how late each Feed call started, ns
	round  int     // paced feeds: the session's round
	err    error
}

// outcome is one finished session as the display saw it.
type outcome struct {
	attempted  int       // pictures in the session
	failed     int       // pictures missing, duplicated, wrong, or lost to an error
	latencies  []float64 // ms, shown pictures only
	lag        []float64 // ms, paced feeds only
	round      int       // paced feeds only
	start, end int64     // Open call to Close return, ns since epoch
	stats      sessionStats
	err        error

	// Closed loop only: the session's own cost, and its block.
	cpu   time.Duration   // process CPU from Open to Close return
	rt    runtimeCounters // runtime counter deltas over the same span
	block int
}

// sessionStats is the part of a session result the per-layer metrics use.
type sessionStats struct {
	pictures      int
	rootBusy      time.Duration    // scan + copy + send
	splitBusyMax  time.Duration    // busiest splitter
	split         [4]time.Duration // by metrics.SplitPhase
	tileWork      []time.Duration
	tileServe     []time.Duration
	tileWait      []time.Duration // receive + wait for reference macroblocks
	skippedSubPic int64
	wireBytes     int64
	interventions int64
}

// collectStats reads a closed session's per-node accounts.
func collectStats(pictures int, root *splitter.RootResult, sps []*splitter.SecondResult, decs []*pdec.Result) sessionStats {
	st := sessionStats{pictures: pictures}
	if root != nil {
		st.rootBusy = root.ScanTime + root.CopyTime + root.SendTime
	}
	for _, sp := range sps {
		if sp == nil {
			continue
		}
		if b := sp.Breakdown.Busy(); b > st.splitBusyMax {
			st.splitBusyMax = b
		}
		for _, p := range metrics.SplitPhases() {
			st.split[p] += sp.Split.Durations[p]
		}
	}
	for _, d := range decs {
		var work, serve, wait time.Duration
		if d != nil {
			work = d.Breakdown.Durations[metrics.PhaseWork]
			serve = d.Breakdown.Durations[metrics.PhaseServe]
			wait = d.Breakdown.Durations[metrics.PhaseReceive] + d.Breakdown.Durations[metrics.PhaseWaitMB]
		}
		st.tileWork = append(st.tileWork, work)
		st.tileServe = append(st.tileServe, serve)
		st.tileWait = append(st.tileWait, wait)
	}
	return st
}

// open starts a session for feed f under the parent span.
func (r *runner) open(f int, parent int64) *live {
	l := &live{feed: f, opened: r.now()}
	l.span = r.tr.begin("session", parent, 0, -1)
	sp := r.tr.begin("Open", l.span.ID, 0, -1)
	sess, err := r.wall.Open(fmt.Sprintf("%s-%d", r.wl.Name, r.names.Add(1)))
	if err == nil {
		sp.Session, l.span.Session = sess.ID(), sess.ID()
	}
	r.tr.end(sp)
	if err != nil {
		l.err = err
		return l
	}
	l.sess = sess
	l.watch = r.disp.track(sess.ID(), r.oracles[f], r.subs[f])
	if sub := r.subs[f]; sub != nil {
		ts := tiledwall.NewTileSet(r.wl.M * r.wl.N)
		for _, t := range sub {
			ts.Add(t)
		}
		l.err = sess.Subscribe(ts)
	}
	return l
}

// feed plays the first n units of the session's stream. With pace nil each
// unit is fed as soon as the previous Feed returned; otherwise unit i is fed
// at pace(i) (ns since epoch) and the feeder's lateness is recorded.
func (r *runner) feed(l *live, n int, pace func(i int) int64) {
	units := r.streams[l.feed].units[:n]
	l.due = make([]int64, n)
	for i, u := range units {
		if l.err != nil {
			return
		}
		if pace != nil {
			due := pace(i)
			if d := due - r.now(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			l.due[i] = due
			l.lag = append(l.lag, r.now()-due)
		} else {
			l.due[i] = r.now()
		}
		sp := r.tr.begin("Feed", l.span.ID, l.sess.ID(), i)
		l.err = l.sess.Feed(u.Chunk)
		r.tr.end(sp)
	}
}

// finish closes the session, waits for its drain, and judges every picture.
func (r *runner) finish(l *live) outcome {
	or := r.oracles[l.feed]
	o := outcome{attempted: len(l.due), start: l.opened, round: l.round}
	if l.sess != nil {
		sp := r.tr.begin("Close", l.span.ID, l.sess.ID(), -1)
		res, err := l.sess.Close()
		r.tr.end(sp)
		if l.err == nil {
			l.err = err
		}
		if err == nil {
			o.stats = collectStats(res.Pictures, res.Root, res.Splitters, res.Decoders)
			o.stats.skippedSubPic = res.SkippedSubPics
			o.stats.wireBytes = res.WireBytes
			rv := res.Recovery
			o.stats.interventions = rv.Retransmits + rv.Nacks + rv.Duplicates + rv.Restarts +
				rv.ReplayedPictures + rv.ConcealedFrames + rv.ConcealedMBs + rv.AckTimeouts
		}
		r.disp.forget(l.sess.ID())
	}
	o.end = r.now()
	r.tr.end(l.span)
	o.err = l.err
	for pic := 0; pic < o.attempted; pic++ {
		if o.err != nil || !l.watch.verdict(pic) {
			o.failed++
			continue
		}
		// An anchor whose successor was never fed is shown by Close's flush,
		// after the last unit that was.
		req := or.required[pic]
		if req >= len(l.due) {
			req = len(l.due) - 1
		}
		o.latencies = append(o.latencies, ms(l.watch.doneAt[pic].Load()-l.due[req]))
	}
	for _, g := range l.lag {
		o.lag = append(o.lag, ms(g))
	}
	return o
}

// setup builds the wall reps times, each time from NewWall until the warm-up
// session's first display picture reached every tile, and keeps the last
// wall running. A build's warm-up session plays the stream's first clip;
// the kept wall then plays every feed's whole stream once, so pools and
// heap have grown to their working size before anything is timed. It
// returns each build's set-up time in seconds and the warm-up sessions'
// outcomes.
func (r *runner) setup(reps int, parent int64) ([]float64, []outcome, error) {
	var times []float64
	var warm []outcome
	for rep := 0; rep < reps; rep++ {
		if r.wall != nil {
			if err := r.wall.Close(); err != nil {
				return nil, nil, fmt.Errorf("close wall: %w", err)
			}
			r.wall = nil
		}
		sp := r.tr.begin("setup", parent, 0, -1)
		t0 := r.now()
		nw := r.tr.begin("NewWall", sp.ID, 0, -1)
		w, err := tiledwall.NewWall(r.config())
		r.tr.end(nw)
		if err != nil {
			return nil, nil, fmt.Errorf("NewWall: %w", err)
		}
		r.wall = w
		l := r.open(0, sp.ID)
		r.feed(l, r.wl.Feeds[0].Stream.Frames, nil)
		o := r.finish(l)
		r.tr.end(sp)
		warm = append(warm, o)
		if o.err != nil {
			return nil, nil, fmt.Errorf("warm-up session: %w", o.err)
		}
		shown := l.watch.doneAt[r.oracles[0].first].Load()
		if shown == 0 {
			return nil, nil, fmt.Errorf("warm-up session: first picture never reached every tile")
		}
		times = append(times, float64(shown-t0)/1e9)
	}
	sp := r.tr.begin("warmup", parent, 0, -1)
	defer r.tr.end(sp)
	for f := range r.wl.Feeds {
		l := r.open(f, sp.ID)
		r.feed(l, len(r.streams[f].units), nil)
		o := r.finish(l)
		warm = append(warm, o)
		if o.err != nil {
			return nil, nil, fmt.Errorf("warm-up session: %w", o.err)
		}
	}
	return times, warm, nil
}

// serialEvery is how long a closed loop plays wall sessions between two
// serial decodes of the same stream.
const serialEvery = 2 * time.Second

// serialSample is one serial decode: wall-clock and CPU ms per picture.
type serialSample struct{ wallMs, cpuMs float64 }

// closedLoop plays back-to-back sessions of feed 0 until the window has
// passed; the session running at the deadline completes. After every
// serialEvery of sessions, and after the last one, the serial decoder
// decodes the same stream, so each session is compared with a serial decode
// made under the same host conditions: outcome.block indexes the returned
// serial samples.
func (r *runner) closedLoop(window time.Duration, parent int64) ([]outcome, []serialSample, error) {
	var (
		outs   []outcome
		serial []serialSample
	)
	end := r.now() + int64(window)
	for blockStart := r.now(); blockStart < end; {
		c0, rt0 := processCPU(), readRuntime()
		l := r.open(0, parent)
		r.feed(l, len(r.streams[0].units), nil)
		o := r.finish(l)
		o.cpu, o.rt, o.block = processCPU()-c0, readRuntime().sub(rt0), len(serial)
		outs = append(outs, o)
		if now := r.now(); now-blockStart < int64(serialEvery) && now < end {
			continue
		}
		w, c, err := serialCost(r.streams[0], r.tr, parent)
		if err != nil {
			return nil, nil, err
		}
		serial = append(serial, serialSample{w, c})
		blockStart = r.now()
	}
	return outs, serial, nil
}

// pacedLoop runs one feeder per feed, each playing as many back-to-back
// sessions as fit in the window, with units falling due at the workload's
// rate on a schedule that never waits for the wall. A feeder hands each fed
// session to its own closer, so the drain of one session does not delay the
// next one's schedule. Feeders are offset by a fraction of the period so
// their units interleave. Every feeder's k-th session forms round k.
func (r *runner) pacedLoop(window time.Duration, parent int64) []outcome {
	period := int64(float64(time.Second) / r.wl.Rate)
	start := r.now() + int64(20*time.Millisecond)
	var (
		mu   sync.Mutex
		outs []outcome
		wg   sync.WaitGroup
	)
	for f := range r.wl.Feeds {
		// One session may wait here for its closer while the next is fed.
		handoff := make(chan *live, 1)
		wg.Add(2)
		go func(f int) {
			defer wg.Done()
			defer close(handoff)
			n := int64(len(r.streams[f].units))
			sessions := int64(window) / (n * period)
			if sessions < 1 {
				sessions = 1
			}
			base := start + int64(f)*period/int64(len(r.wl.Feeds))
			for k := int64(0); k < sessions; k++ {
				first := base + k*n*period
				l := r.open(f, parent)
				l.round = int(k)
				r.feed(l, int(n), func(i int) int64 { return first + int64(i)*period })
				handoff <- l
			}
		}(f)
		go func() {
			defer wg.Done()
			for l := range handoff {
				o := r.finish(l)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs
}

// serialCost decodes the stream once with the serial reference decoder,
// releasing each picture as a display would, and returns the wall-clock and
// CPU milliseconds per picture.
func serialCost(s *stream, tr *tracer, parent int64) (wallMs, cpuMs float64, err error) {
	sp := tr.begin("Decode", parent, 0, -1)
	defer tr.end(sp)
	t0, c0 := time.Now(), processCPU()
	n, err := serialDecode(s.data)
	if err != nil {
		return 0, 0, fmt.Errorf("serial decode: %w", err)
	}
	return ms(int64(time.Since(t0))) / float64(n), ms(int64(processCPU()-c0)) / float64(n), nil
}

// serialDecode runs the serial decoder over a whole stream and returns the
// number of pictures it displayed.
func serialDecode(data []byte) (int, error) {
	n := 0
	err := decodeEach(data, func(mpeg2.DecodedPicture) { n++ })
	return n, err
}

// decodeEach runs the serial decoder — the one tiledwall.Decode wraps — and
// hands each picture to fn in display order. Buffers go back to the pool as
// soon as the decoder stops referencing them, as a display would return
// them, so a long stream never holds more than a few frames: a B picture
// right after fn, an I or P picture once the next anchor has been shown
// (until then it may still be the forward reference of later pictures).
func decodeEach(data []byte, fn func(mpeg2.DecodedPicture)) error {
	dec, err := mpeg2.NewDecoder(data)
	if err != nil {
		return err
	}
	var anchor *mpeg2.PixelBuf // the last anchor shown
	defer func() { anchor.Release() }()
	for {
		p, err := dec.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		fn(p)
		if p.Pic.PicType == mpeg2.PictureB {
			p.Buf.Release()
			continue
		}
		anchor.Release()
		anchor = p.Buf
	}
}
