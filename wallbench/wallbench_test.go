package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// small shrinks a workload's streams so a self-test runs in seconds.
func small(wl workload) *workload {
	feeds := append([]feedSpec(nil), wl.Feeds...)
	for i := range feeds {
		feeds[i].Stream.Scale *= 4
		feeds[i].Stream.Frames = 6
	}
	wl.Feeds = feeds
	return &wl
}

func TestCutUnitsCoversStream(t *testing.T) {
	s, err := loadStream(streamSpec{ID: 8, Scale: 8, Frames: 6, Clips: 2}, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.units) != 12 {
		t.Fatalf("%d units, want 12", len(s.units))
	}
	var joined []byte
	for i, u := range s.units {
		joined = append(joined, u.Chunk...)
		// A unit's own start code ends the previous chunk.
		if !bytes.Contains(u.Chunk, u.Pic[4:]) {
			t.Errorf("unit %d: chunk does not contain its picture", i)
		}
	}
	if !bytes.Equal(joined, s.data) {
		t.Fatal("chunks do not concatenate to the stream")
	}
	// Decode order of an IBBP stream: I0 P3 B1 B2 ...
	if a := []bool{s.units[0].Anchor, s.units[1].Anchor, s.units[2].Anchor}; !a[0] || !a[1] || a[2] {
		t.Errorf("first three units anchors %v, want I P B", a)
	}
}

func TestContentCacheReturnsSameBytes(t *testing.T) {
	dir := t.TempDir()
	spec := streamSpec{ID: 9, Scale: 8, Frames: 6, Clips: 2}
	a, err := loadStream(spec, 5, dir)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.m2v"))
	if len(files) != 2 {
		t.Fatalf("cache holds %v, want one file per clip", files)
	}
	b, err := loadStream(spec, 5, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.data, b.data) {
		t.Fatal("cached stream differs from the generated one")
	}
	c, err := loadStream(spec, 6, dir)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.data, c.data) {
		t.Fatal("seeds 5 and 6 generated the same stream")
	}
}

// TestCorruptPictureIsCounted plays a stream with one wrongly coded picture
// against the clean stream's oracle: every session must report exactly the
// pictures whose serial decode differs from the clean one as failed.
func TestCorruptPictureIsCounted(t *testing.T) {
	wl := small(workloads[0])
	clean, err := loadStream(wl.Feeds[0].Stream, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	pic := -1
	for i, u := range clean.units {
		if !u.Anchor {
			pic = i
			break
		}
	}
	bad, err := corruptPicture(clean.data, pic)
	if err != nil {
		t.Fatal(err)
	}
	corrupt, err := newStream(clean.spec, bad)
	if err != nil {
		t.Fatal(err)
	}
	// The pictures the oracle must reject: those whose tiles differ.
	want := 0
	cleanOr, err := buildOracle(clean, wl.M, wl.N)
	if err != nil {
		t.Fatal(err)
	}
	badOr, err := buildOracle(corrupt, wl.M, wl.N)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cleanOr.crc {
		for tile := range cleanOr.crc[i] {
			if cleanOr.crc[i][tile] != badOr.crc[i][tile] {
				want++
				break
			}
		}
	}
	if want == 0 {
		t.Fatal("corruption changed no picture")
	}

	r, err := newRunner(wl, []*stream{clean}, nil, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.setup(1, 0); err != nil {
		t.Fatal(err)
	}
	defer r.wall.Close()
	r.streams[0] = corrupt
	outs, _, err := r.closedLoop(200*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	attempted, failed := 0, 0
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("session %d: %v", i, o.err)
		}
		if o.failed != want {
			t.Errorf("session %d: %d pictures failed, want %d", i, o.failed, want)
		}
		attempted += o.attempted
		failed += o.failed
	}
	if frac := float64(failed) / float64(attempted); frac <= 0 {
		t.Fatalf("failed_frac = %v, want > 0", frac)
	}
}

// TestTracedRunsAttributeEveryRole runs every workload's traced run on small
// content and checks the acceptance properties of the per-layer report.
func TestTracedRunsAttributeEveryRole(t *testing.T) {
	if testing.Short() {
		t.Skip("plays every workload")
	}
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			rep, err := run(small(w), options{
				seed: 1, window: time.Second, traced: true, outDir: dir,
				setupReps: 1, serialReps: 2,
			}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			for _, d := range perLayer {
				v, ok := rep.Metrics[d.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("%s: got %+v", d.Name, v)
				}
			}
			var sum float64
			for _, role := range roles {
				sum += rep.Metrics["cpu_share."+role].Value
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("cpu_share.* sums to %v, want 1", sum)
			}
			skipped := rep.Metrics["subpic.skipped_per_picture"].Value
			if (w.Name == "live-6x4-paced") != (skipped > 0) {
				t.Errorf("subpic.skipped_per_picture = %v", skipped)
			}
			if v := rep.Metrics["recovery.interventions"].Value; v != 0 {
				t.Errorf("recovery.interventions = %v on a fault-free run", v)
			}
			if v := rep.Metrics["cpu_share.transport"].Value; (w.Transport == "tcp") != (v > 0) {
				t.Errorf("cpu_share.transport = %v", v)
			}
			spans := readSpans(t, filepath.Join(dir, w.Name+"-seed1.spans.jsonl"))
			if err := checkNesting(spans); err != nil {
				t.Fatal(err)
			}
			feeds := 0
			for _, s := range spans {
				if s.Name == "Feed" {
					feeds++
					if s.Session == 0 || s.Picture < 0 {
						t.Fatalf("Feed span without session or picture: %+v", s)
					}
				}
			}
			if feeds == 0 {
				t.Fatal("no Feed spans written")
			}
		})
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

func TestCheckNestingRejectsBrokenTrees(t *testing.T) {
	tr := newTracer(time.Now())
	root := tr.begin("run", 0, 0, -1)
	child := tr.begin("Feed", root.ID, 1, 0)
	tr.end(child)
	tr.end(root)
	good := tr.all()
	if err := checkNesting(good); err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
	orphan := append([]span(nil), good...)
	orphan = append(orphan, span{ID: 99, Parent: 42, Name: "Close"})
	if checkNesting(orphan) == nil {
		t.Error("unresolved parent accepted")
	}
	outside := append([]span(nil), good...)
	outside = append(outside, span{ID: 100, Parent: root.ID, Name: "Close", Start: root.Start, End: root.End + int64(time.Second)})
	if checkNesting(outside) == nil {
		t.Error("child ending after its parent accepted")
	}
	var none *tracer
	none.end(none.begin("run", 0, 0, -1)) // the untraced run records nothing
}

func TestRoleAttribution(t *testing.T) {
	hook, skip := funcName((*display).onTile), funcName(serialDecode)
	cases := []struct {
		stack []string // leaf first
		role  string
	}{
		{[]string{"tiledwall/internal/mpeg2.idct", "tiledwall/internal/pdec.Serve", "tiledwall/internal/service.New.func4", "runtime.goexit"}, "decoder"},
		{[]string{"tiledwall/internal/cluster.(*Node).Send", "tiledwall/internal/pdec.Serve", "runtime.goexit"}, "decoder"},
		{[]string{"syscall.Syscall", "tiledwall/internal/cluster.(*tcpPort).writer", "runtime.goexit"}, "transport"},
		{[]string{"tiledwall/internal/bits.(*Reader).Read", "tiledwall/internal/splitter.ServeSecond", "runtime.goexit"}, "splitter"},
		{[]string{"runtime.memmove", "tiledwall/internal/service.(*Session).Feed", "tiledwall/wallbench.(*runner).feed"}, "root"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "tiledwall/internal/pdec.Serve"}, "gc"},
		{[]string{"hash/crc32.update", hook, "tiledwall/internal/pdec.Serve"}, "display_hook"},
		{[]string{"runtime.findRunnable", "runtime.schedule"}, "other"},
	}
	serial := []string{"tiledwall/internal/mpeg2.idct", skip, "tiledwall/wallbench.(*runner).closedLoop"}
	var samples []cpuSample
	for _, c := range cases {
		if got := roleOf(c.stack, hook); got != c.role {
			t.Errorf("roleOf(%v) = %s, want %s", c.stack, got, c.role)
		}
		samples = append(samples, cpuSample{stack: c.stack, count: 3})
	}
	samples = append(samples, cpuSample{stack: serial, count: 100})
	share, leaf := attribute(samples, hook, skip)
	var sum float64
	for _, v := range share {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("role shares sum to %v", sum)
	}
	if want := 1.0 / float64(len(cases)); math.Abs(leaf["mpeg2"]-want) > 1e-12 {
		t.Errorf("cpu_leaf.mpeg2 = %v, want %v", leaf["mpeg2"], want)
	}
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the metric tables
// in step.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s %d: %+v vs %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// corruptPicture returns a copy of data in which every slice of the
// decode-order picture pic carries a different quantiser_scale_code. The
// result stays syntactically valid, so the wall decodes it without error,
// but the picture's pixels differ from the clean stream's — a wrong-output
// fault the oracle must catch.
func corruptPicture(data []byte, pic int) ([]byte, error) {
	out := append([]byte(nil), data...)
	n, changed := -1, 0
	for _, off := range startCodes(out) {
		code := out[off+3]
		if code == codePicture {
			n++
			continue
		}
		// Slice start codes run from 0x01 to 0xAF.
		if n != pic || code < 0x01 || code > 0xAF || off+4 >= len(out) {
			continue
		}
		// quantiser_scale_code is the top five bits after the slice start
		// code (no vertical position extension below 2800 lines).
		q := out[off+4] >> 3
		nq := q%31 + 1
		out[off+4] = nq<<3 | out[off+4]&7
		changed++
	}
	if changed == 0 {
		return nil, fmt.Errorf("picture %d has no slices", pic)
	}
	return out, nil
}
