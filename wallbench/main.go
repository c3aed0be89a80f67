// Command wallbench is the tiled wall's benchmark. It plays generated MPEG-2
// streams on a resident wall through the public tiledwall façade, checks
// every delivered tile against the serial decoder, and prints the wall-clock
// picture rate, CPU cost and picture latency a viewer of the wall sees.
//
//	go build -o wallbench . && ./wallbench --workload hd-2x2 --seed 1 --seconds 20 --trace 0
//
// With --trace 1 the same run also records a span around every façade call,
// takes a CPU profile of the timed window, replays single pipeline stages in
// isolation, and reports per-layer metrics instead. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Everything it writes — the generated-content cache, span and
// profile files — goes under --out-dir.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"time"

	"tiledwall/internal/metrics"
)

type options struct {
	seed       int64
	window     time.Duration
	traced     bool
	outDir     string
	setupReps  int // wall builds; setup_s is their median
	serialReps int // paced runs: serial decodes per stream, half before and half after the window
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// lateLimitMs is the latency past which a picture counts as late: three frame
// periods at the streams' native 30 pictures/s.
const lateLimitMs = 100

func main() {
	var (
		wl      = flag.String("workload", "", "workload name (hd-2x2, orion-6x4-tcp, live-6x4-paced)")
		seed    = flag.Int64("seed", 1, "seed the generated content is made from")
		seconds = flag.Int("seconds", 20, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		outDir  = flag.String("out-dir", ".bench_build/wallbench-out", "directory for the content cache, spans and profiles")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "wallbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	// A hung wall must not hang the benchmark: give up well inside the
	// three minutes a run may take.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "wallbench: run exceeded 170 s")
		os.Exit(1)
	})
	w, err := findWorkload(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(2)
	}
	rep, err := run(w, options{
		seed:       *seed,
		window:     time.Duration(*seconds) * time.Second,
		traced:     *trace == 1,
		outDir:     *outDir,
		setupReps:  5,
		serialReps: 4,
	}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and returns its result line; log receives the
// human-readable report.
func run(wl *workload, o options, log io.Writer) (*report, error) {
	var streams []*stream
	for _, f := range wl.Feeds {
		s, err := loadStream(f.Stream, o.seed, filepath.Join(o.outDir, "content"))
		if err != nil {
			return nil, err
		}
		streams = append(streams, s)
	}
	fmt.Fprintf(log, "host cpu=%q nproc=%d gomaxprocs=%d go=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(log, "workload=%s seed=%d seconds=%g trace=%t\n", wl.Name, o.seed, o.window.Seconds(), o.traced)

	epoch := time.Now()
	var tr *tracer
	if o.traced {
		tr = newTracer(epoch)
	}
	r, err := newRunner(wl, streams, tr, epoch)
	if err != nil {
		return nil, err
	}
	root := tr.begin("run", 0, 0, -1)
	m, err := r.measure(o, root.ID, log)
	if r.wall != nil {
		if cerr := r.wall.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close wall: %w", cerr)
		}
	}
	tr.end(root)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Correct:   m.failed == 0 && m.warmFailed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]value{},
	}
	for _, d := range endToEnd {
		fmt.Fprintf(log, "%-40s %14.4f %s\n", d.Name, m.e2e[d.Name], d.Unit)
	}
	fmt.Fprintf(log, "%-40s %14.4f ratio (%d of %d pictures over %d ms or failed)\n",
		"late_frac", float64(m.late)/float64(m.attempted), m.late, m.attempted, lateLimitMs)
	fmt.Fprintf(log, "%-40s %14.4f ratio (%d of %d pictures)\n",
		"failed_frac", float64(m.failed)/float64(m.attempted), m.failed, m.attempted)
	fmt.Fprintf(log, "latency samples %d; warm-up pictures failed %d\n", m.latencySamples, m.warmFailed)
	if m.rounds > 0 {
		fmt.Fprintf(log, "latency_p99_ms is the median of %d rounds' 99th percentiles; over every picture it is %.4f ms\n",
			m.rounds, m.pooledP99)
	}
	if !o.traced {
		for _, d := range endToEnd {
			rep.Metrics[d.Name] = value{m.e2e[d.Name], d.Unit}
		}
		return rep, nil
	}

	spans := tr.all()
	if err := checkNesting(spans); err != nil {
		return nil, fmt.Errorf("span nesting: %w", err)
	}
	base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", wl.Name, o.seed))
	if err := writeSpans(base+".spans.jsonl", spans); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".cpu.pprof", m.profile, 0o644); err != nil {
		return nil, err
	}
	layers, err := r.layerMetrics(m, spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "per-layer (spans %d, written to %s.*):\n", len(spans), base)
	for _, d := range perLayer {
		fmt.Fprintf(log, "%-40s %14.4f %-6s moves %s\n", d.Name, layers[d.Name], d.Unit, d.Moves)
		rep.Metrics[d.Name] = value{layers[d.Name], d.Unit}
	}
	return rep, nil
}

// measurement is everything one run measured.
type measurement struct {
	e2e            map[string]float64
	attempted      int
	failed         int
	late           int
	latencySamples int
	warmFailed     int
	pooledP99      float64 // paced: the 99th percentile over every picture
	rounds         int     // paced: rounds latency_p99_ms is the median of

	shown    int // pictures shown correctly in the window
	outs     []outcome
	serialMs float64         // serial decoder wall-clock ms/picture
	rt       runtimeCounters // runtime counter deltas of the wall's work
	window   span
	sampler  *sampler
	profile  []byte // gzipped CPU profile of the window (traced run)
	replay   replayResult
}

// measure builds the wall, runs the timed window, and derives the end-to-end
// metrics. A closed loop interleaves serial decodes of the same stream with
// its sessions; a paced run cannot pause for them, so it measures the serial
// decoder before and after the window instead.
func (r *runner) measure(o options, parent int64, log io.Writer) (*measurement, error) {
	m := &measurement{e2e: map[string]float64{}}
	paced := r.wl.Rate > 0
	serial := make([][]serialSample, len(r.streams)) // per feed
	decodeAll := func(reps int) error {
		sp := r.tr.begin("serial", parent, 0, -1)
		defer r.tr.end(sp)
		for rep := 0; rep < reps; rep++ {
			for f, s := range r.streams {
				w, c, err := serialCost(s, r.tr, sp.ID)
				if err != nil {
					return err
				}
				serial[f] = append(serial[f], serialSample{w, c})
			}
		}
		return nil
	}
	if paced {
		if err := decodeAll(o.serialReps / 2); err != nil {
			return nil, err
		}
	}

	setupTimes, warm, err := r.setup(o.setupReps, parent)
	if err != nil {
		return nil, err
	}
	for _, w := range warm {
		m.warmFailed += w.failed
	}

	// Collect before the window, so the live heap it starts from is the
	// wall's and not what building the oracles held: the second cycle frees
	// what the first only moved out of the buffer pools.
	runtime.GC()
	runtime.GC()
	var prof bytes.Buffer
	m.window = r.tr.begin("window", parent, 0, -1)
	if r.tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	m.sampler = startSampler(10 * time.Millisecond)
	rt0, cpu0 := readRuntime(), processCPU()
	if paced {
		m.outs = r.pacedLoop(o.window, m.window.ID)
	} else {
		m.outs, serial[0], err = r.closedLoop(o.window, m.window.ID)
	}
	cpu, rt := processCPU()-cpu0, readRuntime().sub(rt0)
	m.sampler.halt()
	if r.tr != nil {
		pprof.StopCPUProfile()
		m.profile = prof.Bytes()
	}
	r.tr.end(m.window)
	if err != nil {
		return nil, err
	}

	if paced {
		if err := decodeAll(o.serialReps - o.serialReps/2); err != nil {
			return nil, err
		}
	}
	if r.tr != nil {
		sp := r.tr.begin("replay", parent, 0, -1)
		m.replay, err = replayStages(r.streams[0], r.wl.M, r.wl.N, 3*time.Second)
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
	}

	var (
		lat         []float64
		first, last int64 = -1, 0
	)
	for _, out := range m.outs {
		if out.err != nil {
			fmt.Fprintf(log, "session error: %v\n", out.err)
		}
		m.attempted += out.attempted
		m.failed += out.failed
		m.shown += len(out.latencies)
		lat = append(lat, out.latencies...)
		if first < 0 || out.start < first {
			first = out.start
		}
		if out.end > last {
			last = out.end
		}
		m.rt = m.rt.add(out.rt)
	}
	if m.shown == 0 {
		return nil, fmt.Errorf("no picture was shown correctly in the window (%d attempted)", m.attempted)
	}
	m.late = m.failed
	for _, l := range lat {
		if l > lateLimitMs {
			m.late++
		}
	}
	m.latencySamples = len(lat)

	// The serial decoder's cost per picture, averaged over its runs and,
	// for two feeds, over both streams (they play equally many pictures).
	var serialWallMs, serialCPUMs float64
	for _, runs := range serial {
		for _, s := range runs {
			serialWallMs += s.wallMs / float64(len(runs)*len(serial))
			serialCPUMs += s.cpuMs / float64(len(runs)*len(serial))
		}
	}
	m.serialMs = serialWallMs

	var fps, speedup, cpuMs, tax []float64
	if paced {
		// Rates over the whole window, which the paced feeders fill; the
		// serial decoder would show the offered rate when it can keep up,
		// and its capacity when it cannot.
		rate := float64(m.shown) / (float64(last-first) / 1e9)
		c := ms(int64(cpu)) / float64(m.shown)
		serialFps := 1000 / serialWallMs
		if offered := r.wl.Rate * float64(len(r.wl.Feeds)); offered < serialFps {
			serialFps = offered
		}
		fps, speedup, cpuMs, tax = []float64{rate}, []float64{rate / serialFps}, []float64{c}, []float64{c / serialCPUMs}
		m.rt = rt
	} else {
		// Each session's rates over the time it played, against the serial
		// decode that ended its block; the median session is reported, so
		// a burst of load from outside the benchmark moves a few sessions
		// only.
		for _, out := range m.outs {
			if len(out.latencies) == 0 {
				continue
			}
			rate := float64(len(out.latencies)) / (float64(out.end-out.start) / 1e9)
			c := ms(int64(out.cpu)) / float64(len(out.latencies))
			s := serial[0][out.block]
			fps = append(fps, rate)
			speedup = append(speedup, rate*s.wallMs/1000)
			cpuMs = append(cpuMs, c)
			tax = append(tax, c/s.cpuMs)
		}
	}
	m.e2e["fps"] = median(fps)
	m.e2e["speedup_vs_serial"] = median(speedup)
	m.e2e["cpu_ms_per_picture"] = median(cpuMs)
	m.e2e["cpu_tax"] = median(tax)
	m.e2e["latency_p50_ms"] = quantile(lat, 0.50)
	m.e2e["latency_p99_ms"] = quantile(lat, 0.99)
	if paced {
		// A host stall of a second or two delays more than 1% of an open
		// loop's pictures and then decides a pooled 99th percentile. Each
		// round's percentile is taken instead, and the median round reported.
		m.pooledP99 = m.e2e["latency_p99_ms"]
		byRound := map[int][]float64{}
		for _, out := range m.outs {
			byRound[out.round] = append(byRound[out.round], out.latencies...)
		}
		var p99s []float64
		for _, l := range byRound {
			if len(l) > 0 {
				p99s = append(p99s, quantile(l, 0.99))
			}
		}
		m.e2e["latency_p99_ms"] = median(p99s)
		m.rounds = len(p99s)
	}
	m.e2e["setup_s"] = median(setupTimes)
	// The peak is taken as the 95th percentile over the window's
	// collections: the single largest swings with what the buffer pools
	// happened to hold when one collection ran.
	m.e2e["mem_peak_mb"] = quantile(m.sampler.liveHeap, 0.95) / 1e6
	return m, nil
}

// layerMetrics derives the per-layer metrics of a traced run.
func (r *runner) layerMetrics(m *measurement, spans []span) (map[string]float64, error) {
	out := map[string]float64{}
	out["mpeg2.serial_ms_per_picture"] = m.serialMs

	// Façade calls of the sessions in the timed window.
	inWindow := map[int64]bool{}
	for _, s := range spans {
		if s.Name == "session" && s.Parent == m.window.ID {
			inWindow[s.ID] = true
		}
	}
	var opens, closes []float64
	var feedNs int64
	var feeds int
	for _, s := range spans {
		if !inWindow[s.Parent] {
			continue
		}
		switch s.Name {
		case "Open":
			opens = append(opens, ms(s.End-s.Start))
		case "Close":
			closes = append(closes, ms(s.End-s.Start))
		case "Feed":
			feedNs += s.End - s.Start
			feeds++
		}
	}
	if len(opens) == 0 || feeds == 0 {
		return nil, fmt.Errorf("no window sessions traced")
	}
	out["service.open_ms"] = median(opens)
	out["service.feed_ms_per_picture"] = ms(feedNs) / float64(feeds)
	out["service.drain_ms"] = median(closes)

	// Node accounts from the session results.
	nt := r.wl.M * r.wl.N
	var (
		pics                         int
		rootBusy, splitBusy          time.Duration
		split                        [4]time.Duration
		work                         = make([]time.Duration, nt)
		serve                        = make([]time.Duration, nt)
		wait                         = make([]time.Duration, nt)
		skipped, wire, interventions int64
	)
	for _, o := range m.outs {
		st := o.stats
		pics += st.pictures
		rootBusy += st.rootBusy
		splitBusy += st.splitBusyMax
		for i := range split {
			split[i] += st.split[i]
		}
		for t := 0; t < nt && t < len(st.tileWork); t++ {
			work[t] += st.tileWork[t]
			serve[t] += st.tileServe[t]
			wait[t] += st.tileWait[t]
		}
		skipped += st.skippedSubPic
		wire += st.wireBytes
		interventions += st.interventions
	}
	if pics == 0 {
		return nil, fmt.Errorf("no session result in the window")
	}
	perPic := func(d time.Duration) float64 { return ms(int64(d)) / float64(pics) }
	out["service.root_busy_ms_per_picture"] = perPic(rootBusy)
	out["splitter.busy_ms_per_picture"] = perPic(splitBusy)
	out["splitter.parse_ms_per_picture"] = perPic(split[metrics.SplitParse])
	out["splitter.sort_ms_per_picture"] = perPic(split[metrics.SplitSort])
	out["splitter.serialize_ms_per_picture"] = perPic(split[metrics.SplitSerialize])
	out["splitter.split_ms_per_picture_isolated"] = m.replay.splitMsPerPic
	out["splitter.subpic_bytes_per_picture"] = m.replay.subpicBytesPerPic
	var workMs, serveMs, waitMs []float64
	for t := 0; t < nt; t++ {
		workMs = append(workMs, perPic(work[t]))
		serveMs = append(serveMs, perPic(serve[t]))
		waitMs = append(waitMs, perPic(wait[t]))
	}
	maxWork := quantile(workMs, 1)
	out["pdec.work_ms_per_picture"] = mean(workMs)
	out["pdec.work_max_ms_per_picture"] = maxWork
	out["pdec.work_skew"] = maxWork / mean(workMs)
	out["pdec.serve_ms_per_picture"] = mean(serveMs)
	out["pdec.wait_ms_per_picture"] = mean(waitMs)
	out["subpic.marshal_us_per_subpic"] = m.replay.marshalUs
	out["subpic.unmarshal_us_per_subpic"] = m.replay.unmarshalUs
	out["subpic.skipped_per_picture"] = float64(skipped) / float64(pics)
	out["cluster.wire_bytes_per_picture"] = float64(wire) / float64(pics)
	out["cluster.frame_encode_us"] = m.replay.frameEncodeUs
	out["cluster.frame_decode_us"] = m.replay.frameDecodeUs
	out["recovery.interventions"] = float64(interventions)

	out["runtime.gc_cpu_frac"] = m.rt.gcCPU / (m.rt.totalCPU - m.rt.idleCPU)
	out["runtime.alloc_bytes_per_picture"] = float64(m.rt.allocBytes) / float64(m.shown)
	out["runtime.goroutines"] = median(m.sampler.goroutines)

	samples, err := parseCPUProfile(m.profile)
	if err != nil {
		return nil, err
	}
	roleShare, leafShare := attribute(samples, funcName((*display).onTile), funcName(serialDecode))
	for role, v := range roleShare {
		out["cpu_share."+role] = v
	}
	for leaf, v := range leafShare {
		out["cpu_leaf."+leaf] = v
	}

	var lag []float64
	for _, o := range m.outs {
		lag = append(lag, o.lag...)
	}
	out["loadgen.lag_p99_ms"] = 0
	if len(lag) > 0 {
		out["loadgen.lag_p99_ms"] = quantile(lag, 0.99)
	}
	return out, nil
}

// funcName is a function's name as profiles report it.
func funcName(fn any) string {
	return runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name()
}
