package experiments

import (
	"fmt"
	"io"
	"time"

	"tiledwall/internal/metrics"
	"tiledwall/internal/service"
	"tiledwall/internal/system"
)

// Table1Row is the measured version of the paper's Table 1 comparison of
// parallelisation granularities. The paper's table is qualitative
// ("very low" ... "very high"); here every cost is measured on a real run.
type Table1Row struct {
	Level string

	// SplitMsPerPicture is the splitter CPU cost per picture.
	SplitMsPerPicture float64
	// InterDecoderKBPerPicture is reference traffic between decoders.
	InterDecoderKBPerPicture float64
	// RedistributionKBPerPicture is decoded-pixel traffic to display nodes.
	RedistributionKBPerPicture float64
	// FPS is the achieved frame rate (informational; the baselines are
	// synchronisation-light simulations of schemes the paper rejects).
	FPS float64
}

// Table1 measures all four granularities on the same content and wall
// geometry. The stream is regenerated with closed GOPs where required.
func Table1(streamID int, m, n int, o Options) ([]Table1Row, error) {
	o.defaults()
	rows := make([]Table1Row, 0, 4)

	closed, _, err := Stream(streamID, o, true)
	if err != nil {
		return nil, err
	}
	open, _, err := Stream(streamID, o, false)
	if err != nil {
		return nil, err
	}

	runBase := func(level system.BaselineLevel, data []byte) (*system.BaselineResult, error) {
		fmt.Fprintf(o.Log, "table1: %v level\n", level)
		return system.RunBaseline(data, system.BaselineConfig{Level: level, M: m, N: n})
	}

	gop, err := runBase(system.LevelGOP, closed)
	if err != nil {
		return nil, err
	}
	rows = append(rows, baselineRow("GOP", gop))

	pic, err := runBase(system.LevelPicture, open)
	if err != nil {
		return nil, err
	}
	rows = append(rows, baselineRow("picture", pic))

	slc, err := runBase(system.LevelSlice, open)
	if err != nil {
		return nil, err
	}
	rows = append(rows, baselineRow("slice", slc))

	// Macroblock level: the paper's own scheme. Splitting cost is the
	// second-level splitter's Work time; communication is decoder-to-decoder
	// MEI traffic; there is no pixel redistribution.
	fmt.Fprintf(o.Log, "table1: macroblock level\n")
	res, err := service.Run(open, service.Config{K: 1, M: m, N: n})
	if err != nil {
		return nil, err
	}
	pics := float64(res.Throughput.Pictures)
	var inter int64
	for _, a := range res.DecoderNodeIDs {
		for _, b := range res.DecoderNodeIDs {
			inter += res.PairBytes(a, b)
		}
	}
	rows = append(rows, Table1Row{
		Level:                    "macroblock",
		SplitMsPerPicture:        res.Splitters[0].Breakdown.PerPicture(metrics.PhaseWork),
		InterDecoderKBPerPicture: float64(inter) / pics / 1024,
		// No redistribution by construction.
		RedistributionKBPerPicture: 0,
		FPS:                        res.Modeled().FPS(),
	})
	return rows, nil
}

func baselineRow(name string, r *system.BaselineResult) Table1Row {
	pics := float64(r.Throughput.Pictures)
	return Table1Row{
		Level:                      name,
		SplitMsPerPicture:          float64(r.SplitTime) / float64(time.Millisecond) / pics,
		InterDecoderKBPerPicture:   float64(r.InterDecoderBytes) / pics / 1024,
		RedistributionKBPerPicture: float64(r.RedistributionBytes) / pics / 1024,
		FPS:                        r.Modeled().FPS(),
	}
}

// PrintTable1 writes the measured comparison.
func PrintTable1(w io.Writer, label string, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1 (measured). Costs of Parallelisation Granularities — %s\n", label)
	fmt.Fprintf(w, "%-11s %14s %18s %18s %8s\n", "level", "split ms/pic", "inter-dec KB/pic", "redistrib KB/pic", "fps")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %14.3f %18.1f %18.1f %8.1f\n",
			r.Level, r.SplitMsPerPicture, r.InterDecoderKBPerPicture, r.RedistributionKBPerPicture, r.FPS)
	}
}
