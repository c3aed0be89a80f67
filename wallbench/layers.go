package main

import (
	"fmt"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/splitter"
	"tiledwall/internal/subpic"
	"tiledwall/internal/wall"
)

// metricDef names one reported metric. Moves records, for a per-layer
// metric, which end-to-end metric on which workload an improvement of that
// layer should move — the prediction a change citing it must check.
type metricDef struct {
	Name, Unit, Better string
	Moves              string
}

// endToEnd is what a viewer of the wall sees; the untraced run reports them.
var endToEnd = []metricDef{
	{Name: "fps", Unit: "1/s", Better: "higher"},
	{Name: "speedup_vs_serial", Unit: "ratio", Better: "higher"},
	{Name: "cpu_ms_per_picture", Unit: "ms", Better: "lower"},
	{Name: "cpu_tax", Unit: "ratio", Better: "lower"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "mem_peak_mb", Unit: "MB", Better: "lower"},
}

// perLayer is what the traced run reports, one layer at a time.
var perLayer = []metricDef{
	{"mpeg2.serial_ms_per_picture", "ms", "lower", "fps and cpu_tax on hd-2x2 (the kernels also run inside pdec)"},

	{"service.open_ms", "ms", "lower", "fps on hd-2x2 and orion-6x4-tcp; latency_p99_ms on live-6x4-paced"},
	{"service.feed_ms_per_picture", "ms", "lower", "fps on hd-2x2 and orion-6x4-tcp; latency_p99_ms on live-6x4-paced"},
	{"service.drain_ms", "ms", "lower", "fps on hd-2x2 and orion-6x4-tcp (the per-session drain is a pipeline bubble); latency_p99_ms on live-6x4-paced"},
	{"service.root_busy_ms_per_picture", "ms", "lower", "fps on hd-2x2 and orion-6x4-tcp; latency_p99_ms on live-6x4-paced"},

	{"splitter.busy_ms_per_picture", "ms", "lower", "fps on hd-2x2 and orion-6x4-tcp"},
	{"splitter.parse_ms_per_picture", "ms", "lower", "fps on hd-2x2"},
	{"splitter.sort_ms_per_picture", "ms", "lower", "fps on orion-6x4-tcp"},
	{"splitter.serialize_ms_per_picture", "ms", "lower", "fps on orion-6x4-tcp"},
	{"splitter.split_ms_per_picture_isolated", "ms", "lower", "fps on hd-2x2"},
	{"splitter.subpic_bytes_per_picture", "B", "lower", "fps and cpu_ms_per_picture on orion-6x4-tcp"},

	{"pdec.work_ms_per_picture", "ms", "lower", "fps and cpu_ms_per_picture on hd-2x2"},
	{"pdec.work_max_ms_per_picture", "ms", "lower", "fps on orion-6x4-tcp"},
	{"pdec.work_skew", "ratio", "lower", "fps on orion-6x4-tcp"},
	{"pdec.serve_ms_per_picture", "ms", "lower", "fps on orion-6x4-tcp"},
	{"pdec.wait_ms_per_picture", "ms", "lower", "none directly: on a host with fewer cores than nodes it mostly measures other goroutines; read cpu_share.* instead"},

	{"subpic.marshal_us_per_subpic", "us", "lower", "cpu_ms_per_picture on orion-6x4-tcp"},
	{"subpic.unmarshal_us_per_subpic", "us", "lower", "cpu_ms_per_picture on orion-6x4-tcp"},
	{"subpic.skipped_per_picture", "count", "higher", "cpu_ms_per_picture on live-6x4-paced (zero elsewhere)"},

	{"cluster.wire_bytes_per_picture", "B", "lower", "fps on orion-6x4-tcp; latency_p50_ms on live-6x4-paced"},
	{"cluster.frame_encode_us", "us", "lower", "fps on orion-6x4-tcp; latency_p50_ms on live-6x4-paced"},
	{"cluster.frame_decode_us", "us", "lower", "fps on orion-6x4-tcp; latency_p50_ms on live-6x4-paced"},

	{"recovery.interventions", "count", "lower", "failed pictures and latency_p99_ms on live-6x4-paced (zero when fault-free)"},

	{"runtime.gc_cpu_frac", "ratio", "lower", "cpu_ms_per_picture and mem_peak_mb on every workload"},
	{"runtime.alloc_bytes_per_picture", "B", "lower", "cpu_ms_per_picture and mem_peak_mb on every workload"},
	{"runtime.goroutines", "count", "lower", "cpu_ms_per_picture and mem_peak_mb on every workload"},

	{"cpu_share.root", "ratio", "lower", "cpu_tax on every workload (which role carries it)"},
	{"cpu_share.splitter", "ratio", "lower", "cpu_tax on every workload (which role carries it)"},
	{"cpu_share.decoder", "ratio", "higher", "cpu_tax on every workload (which role carries it)"},
	{"cpu_share.transport", "ratio", "lower", "cpu_tax on orion-6x4-tcp (about zero on hd-2x2)"},
	{"cpu_share.gc", "ratio", "lower", "cpu_tax on every workload (which role carries it)"},
	{"cpu_share.display_hook", "ratio", "lower", "none: the oracle check, identical on both sides of a comparison"},
	{"cpu_share.other", "ratio", "lower", "cpu_tax on every workload (which role carries it)"},

	{"cpu_leaf.mpeg2", "ratio", "lower", "cpu_ms_per_picture on hd-2x2"},
	{"cpu_leaf.bits", "ratio", "lower", "cpu_ms_per_picture on hd-2x2"},
	{"cpu_leaf.subpic", "ratio", "lower", "cpu_ms_per_picture on orion-6x4-tcp"},
	{"cpu_leaf.cluster", "ratio", "lower", "cpu_ms_per_picture on orion-6x4-tcp"},
	{"cpu_leaf.wall", "ratio", "lower", "cpu_ms_per_picture on orion-6x4-tcp"},
	{"cpu_leaf.runtime", "ratio", "lower", "cpu_ms_per_picture on every workload"},

	{"loadgen.lag_p99_ms", "ms", "lower", "validity of latency_* on live-6x4-paced (zero on the closed loops)"},
}

// replayResult is what the isolated stage replays measured.
type replayResult struct {
	splitMsPerPic     float64
	subpicBytesPerPic float64
	marshalUs         float64
	unmarshalUs       float64
	frameEncodeUs     float64
	frameDecodeUs     float64
}

// replayStages re-runs single stages of the pipeline, outside the wall, on
// the stream's own picture units and the workload's geometry: the second-
// level split, sub-picture marshal and unmarshal, and wire framing of the
// resulting messages. Each stage repeats for about budget/3 and reports its
// median pass.
func replayStages(s *stream, m, n int, budget time.Duration) (replayResult, error) {
	var res replayResult
	seq, err := mpeg2.ParseSequenceHeaderBytes(s.header)
	if err != nil {
		return res, err
	}
	geo, err := wall.NewGeometry(seq.MBWidth()*16, seq.MBHeight()*16, m, n, 0)
	if err != nil {
		return res, err
	}
	mbs := splitter.NewMBSplitterOpts(seq, geo, splitter.SplitOptions{Workers: 1})
	defer mbs.Close()
	stage := budget / 3

	var sps []*subpic.SubPicture
	var splitErr error
	split := repeat(stage, func() {
		sps = sps[:0]
		for i, u := range s.units {
			out, err := mbs.Split(u.Pic, i)
			if err != nil {
				splitErr = err
				return
			}
			sps = append(sps, out...)
		}
	})
	if splitErr != nil {
		return res, fmt.Errorf("split replay: %w", splitErr)
	}
	res.splitMsPerPic = ms(int64(split)) / float64(len(s.units))

	wires := make([][]byte, len(sps))
	var total int
	for i, sp := range sps {
		wires[i] = sp.Marshal()
		total += len(wires[i])
	}
	res.subpicBytesPerPic = float64(total) / float64(len(s.units))

	var buf []byte
	marshal := repeat(stage/2, func() {
		for _, sp := range sps {
			buf = sp.AppendTo(buf[:0])
		}
	})
	var back subpic.SubPicture
	var unmarshalErr error
	unmarshal := repeat(stage/2, func() {
		for _, w := range wires {
			if err := subpic.UnmarshalInto(&back, w); err != nil {
				unmarshalErr = err
				return
			}
		}
	})
	if unmarshalErr != nil {
		return res, fmt.Errorf("unmarshal replay: %w", unmarshalErr)
	}
	res.marshalUs = us(marshal) / float64(len(sps))
	res.unmarshalUs = us(unmarshal) / float64(len(sps))

	msgs := make([]*cluster.Message, len(wires))
	encoded := make([][]byte, len(wires))
	for i, w := range wires {
		msgs[i] = &cluster.Message{From: 1, To: 3 + i%(m*n), Kind: cluster.MsgSubPicture, Seq: i, Tag: 1, Session: 1, Payload: w}
		if encoded[i], err = cluster.AppendMessageFrame(nil, msgs[i]); err != nil {
			return res, fmt.Errorf("frame replay: %w", err)
		}
	}
	var frameErr error
	encode := repeat(stage/2, func() {
		for _, msg := range msgs {
			if buf, frameErr = cluster.AppendMessageFrame(buf[:0], msg); frameErr != nil {
				return
			}
		}
	})
	decode := repeat(stage/2, func() {
		for _, f := range encoded {
			fr, _, err := cluster.DecodeFrame(f)
			if err != nil {
				frameErr = err
				return
			}
			cluster.PutSlab(fr.Msg.Payload)
		}
	})
	if frameErr != nil {
		return res, fmt.Errorf("frame replay: %w", frameErr)
	}
	res.frameEncodeUs = us(encode) / float64(len(msgs))
	res.frameDecodeUs = us(decode) / float64(len(msgs))
	return res, nil
}

// repeat runs pass until budget has elapsed (at least three times) and
// returns the median pass duration.
func repeat(budget time.Duration, pass func()) time.Duration {
	var d []float64
	for start := time.Now(); len(d) < 3 || time.Since(start) < budget; {
		t0 := time.Now()
		pass()
		d = append(d, float64(time.Since(t0)))
	}
	return time.Duration(median(d))
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
