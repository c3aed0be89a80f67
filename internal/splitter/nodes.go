package splitter

import (
	"time"

	"tiledwall/internal/metrics"
)

// RootResult reports the root's work for one session: picture-level scan,
// copy, credit wait and send.
type RootResult struct {
	Pictures int
	ScanTime time.Duration
	CopyTime time.Duration
	WaitTime time.Duration
	SendTime time.Duration
}

// SecondResult reports a second-level splitter's run (one session on a
// resident splitter server).
type SecondResult struct {
	Pictures   int
	Breakdown  metrics.Breakdown      // PhaseWork = splitting, PhaseReceive = waiting for root, PhaseWaitMB = waiting for decoder acks
	Split      metrics.SplitBreakdown // PhaseWork resolved into scan/parse/sort, plus serialization from PhaseServe
	SPBytes    int64                  // serialised sub-picture bytes produced
	InputBytes int64                  // picture bytes received
	// SkippedSubPics counts tiles reduced to ROI skip markers (subscription
	// sessions only; zero on a full subscription).
	SkippedSubPics int64
}

// FoldSplit merges the splitter's phase breakdown into the result and models
// the node's PhaseWork as the splitting stage's critical path: the parse
// region's timeshared wall time is replaced by the slowest worker lane. This
// is the per-node busy methodology of the wall's Modeled throughput
// (EXPERIMENTS.md) applied one level down — each worker stands for a core of
// the splitter PC. On hosts
// with a core per worker wall and critical path coincide and the adjustment
// vanishes; ParseWall keeps the raw figure either way.
func (r *SecondResult) FoldSplit(ms *MBSplitter) {
	bd := ms.Breakdown()
	r.Split.Merge(bd)
	if over := bd.ParseWall - bd.Durations[metrics.SplitParse]; over > 0 {
		w := &r.Breakdown.Durations[metrics.PhaseWork]
		if *w -= over; *w < 0 {
			*w = 0
		}
	}
}
