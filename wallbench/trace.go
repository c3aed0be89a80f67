package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into the program, recorded from the benchmark's side
// of the façade. Times are nanoseconds since the run's epoch. Session is the
// wall's session id (0 when the span belongs to no session) and Picture the
// decode-order picture index (-1 when the span covers no single picture).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Session int    `json:"session"`
	Picture int    `json:"picture"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span under parent (0 for a root span); end records it. A nil
// tracer hands out the zero span, which end ignores.
func (t *tracer) begin(name string, parent int64, session, picture int) span {
	if t == nil {
		return span{}
	}
	return span{
		ID: t.next.Add(1), Parent: parent, Name: name,
		Start: int64(time.Since(t.epoch)), Session: session, Picture: picture,
	}
}

// end closes s and keeps it.
func (t *tracer) end(s span) {
	if t == nil || s.ID == 0 {
		return
	}
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// all returns the recorded spans ordered by start time.
func (t *tracer) all() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// checkNesting verifies that every parent id resolves to a recorded span and
// that every child lies inside its parent's interval.
func checkNesting(spans []span) error {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("span id %d recorded twice", s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s): parent %d not recorded", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] lies outside parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Cumulative runtime counters, read around the measured work.
var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

// runtimeCounters is a snapshot of runtimeSamples, or a difference of two.
type runtimeCounters struct {
	gcCPU, totalCPU, idleCPU float64
	allocBytes               uint64
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeCounters{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		idleCPU:    s[2].Value.Float64(),
		allocBytes: s[3].Value.Uint64(),
	}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.idleCPU - b.idleCPU, a.allocBytes - b.allocBytes}
}

func (a runtimeCounters) add(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU, a.idleCPU + b.idleCPU, a.allocBytes + b.allocBytes}
}

// sampler polls the runtime while the timed window runs: the goroutine
// count, and the live heap each garbage collection leaves behind. The live
// heap is what a collection found reachable; mapped memory would add the
// collector's slack, which swings with where in the allocation pattern each
// collection happens to land.
type sampler struct {
	stop chan struct{}
	done chan struct{}

	liveHeap   []float64 // bytes: at the start, then after each collection in the window
	goroutines []float64
}

// startSampler polls every interval until stopped.
func startSampler(interval time.Duration) *sampler {
	sm := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sm.done)
		s := []metrics.Sample{
			{Name: "/gc/cycles/total:gc-cycles"},
			{Name: "/gc/heap/live:bytes"},
			{Name: "/sched/goroutines:goroutines"},
		}
		metrics.Read(s)
		cycles := s[0].Value.Uint64()
		sm.liveHeap = append(sm.liveHeap, float64(s[1].Value.Uint64()))
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-sm.stop:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != cycles {
				cycles = c
				sm.liveHeap = append(sm.liveHeap, float64(s[1].Value.Uint64()))
			}
			sm.goroutines = append(sm.goroutines, float64(s[2].Value.Uint64()))
		}
	}()
	return sm
}

// halt stops the sampler and waits for its goroutine; its fields are
// readable afterwards.
func (sm *sampler) halt() {
	close(sm.stop)
	<-sm.done
}
