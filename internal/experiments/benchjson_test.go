package experiments

import (
	"bytes"
	"testing"
	"time"
)

func TestBenchJSONRoundtripAndGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full decodes")
	}
	rep, err := BenchJSON(Options{Frames: 8, Scale: 4, Seed: 1}, time.Date(2026, 8, 5, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Serial.FPS <= 0 || rep.Serial.Pictures == 0 {
		t.Fatalf("empty serial bench: %+v", rep.Serial)
	}
	if rep.Serial.AllocsPerPic > 4 {
		t.Fatalf("serial allocs/picture %.2f exceeds steady-state budget", rep.Serial.AllocsPerPic)
	}
	if len(rep.Kernels) != 3 || len(rep.Systems) != 7 {
		t.Fatalf("report shape: %d kernels %d systems", len(rep.Kernels), len(rep.Systems))
	}
	if rep.GoMaxProcs < 1 {
		t.Fatalf("gomaxprocs not recorded: %d", rep.GoMaxProcs)
	}
	tcp := 0
	for _, sys := range rep.Systems {
		if len(sys.SplitPhaseMsPP) == 0 {
			t.Fatalf("%s: no splitter phase breakdown", sys.Config)
		}
		if sys.Transport == "tcp" {
			tcp++
			if sys.FPS <= 0 {
				t.Fatalf("%s over tcp: no throughput measured", sys.Config)
			}
		}
	}
	if tcp != 2 {
		t.Fatalf("transport axis ran %d tcp systems, want 2", tcp)
	}
	if rep.Recovery == nil || rep.Recovery.BaselineFPS <= 0 || rep.Recovery.RecoveryFPS <= 0 {
		t.Fatalf("empty recovery bench: %+v", rep.Recovery)
	}
	if rep.Fleet == nil || rep.Fleet.AggregateFPS <= 0 || rep.Fleet.Walls != 4 {
		t.Fatalf("empty fleet bench: %+v", rep.Fleet)
	}
	if rep.Fleet.Shed != 0 {
		t.Fatalf("fleet bench shed %d sessions under a 60s deadline", rep.Fleet.Shed)
	}
	if rep.Fleet.P99OpenMs <= 0 {
		t.Fatalf("fleet bench recorded no open latency: %+v", rep.Fleet)
	}
	if rep.ROI == nil || len(rep.ROI.Fractions) != 3 || rep.ROI.BaselineFPS <= 0 {
		t.Fatalf("empty roi bench: %+v", rep.ROI)
	}
	for i, fr := range rep.ROI.Fractions {
		if fr.FPS <= 0 || fr.ShippedMB <= 0 {
			t.Fatalf("roi fraction %d tiles measured nothing: %+v", fr.Tiles, fr)
		}
		if i > 0 && fr.ShippedMB <= rep.ROI.Fractions[i-1].ShippedMB {
			t.Fatalf("roi shipped bytes not monotone with subscription: %+v", rep.ROI.Fractions)
		}
	}
	if rep.ROI.Fractions[0].SkippedSubPics == 0 {
		t.Fatalf("roi 1-tile fraction shipped no skip markers: %+v", rep.ROI.Fractions[0])
	}

	var buf bytes.Buffer
	if err := WriteBenchJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBenchJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Serial != rep.Serial || back.Date != rep.Date {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", back.Serial, rep.Serial)
	}

	// Identical reports pass the guard without warnings.
	if v, w := CompareBenchReports(rep, back, 0.10); len(v) != 0 || len(w) != 0 {
		t.Fatalf("self-comparison flagged: %v / %v", v, w)
	}
	// A halved frame rate fails it.
	worse := *back
	worse.Serial.FPS /= 2
	if v, _ := CompareBenchReports(rep, &worse, 0.10); len(v) == 0 {
		t.Fatal("50% fps regression not flagged")
	}
	// Returning heap allocation fails it.
	leaky := *back
	leaky.Serial.AllocsPerPic = rep.Serial.AllocsPerPic + 30
	if v, _ := CompareBenchReports(rep, &leaky, 0.10); len(v) == 0 {
		t.Fatal("allocation regression not flagged")
	}
	// Within-tolerance jitter passes.
	jitter := *back
	jitter.Serial.FPS *= 0.95
	if v, _ := CompareBenchReports(rep, &jitter, 0.10); len(v) != 0 {
		t.Fatalf("5%% jitter flagged: %v", v)
	}
	// Recovery overhead past the structural gate fails, baseline or not.
	heavy := *back
	heavyRec := *rep.Recovery
	heavyRec.RecoveryFPS = heavyRec.BaselineFPS * 0.8
	heavyRec.OverheadFrac = 0.2
	heavy.Recovery = &heavyRec
	if v, _ := CompareBenchReports(rep, &heavy, 0.10); len(v) == 0 {
		t.Fatal("20% fault-free recovery overhead not flagged")
	}
	// Fleet sheds gate structurally, baseline or not.
	shedding := *back
	shedFleet := *rep.Fleet
	shedFleet.Shed = 3
	shedding.Fleet = &shedFleet
	if v, _ := CompareBenchReports(rep, &shedding, 0.10); len(v) == 0 {
		t.Fatal("fleet sheds not flagged")
	}
	// A gross p99 open regression (over 3x baseline, above the noise floor)
	// fails; small absolute jitter below the floor never does.
	slowOpen := *back
	slowFleet := *rep.Fleet
	slowFleet.P99OpenMs = rep.Fleet.P99OpenMs*4 + 100
	slowOpen.Fleet = &slowFleet
	if v, _ := CompareBenchReports(rep, &slowOpen, 0.10); len(v) == 0 {
		t.Fatal("4x fleet p99 open regression not flagged")
	}
	noisy := *back
	noisyFleet := *rep.Fleet
	noisyFleet.P99OpenMs = 4 // under the 5ms floor, even if base was near zero
	noisy.Fleet = &noisyFleet
	if v, _ := CompareBenchReports(rep, &noisy, 0.10); len(v) != 0 {
		t.Fatalf("sub-floor fleet p99 jitter flagged: %v", v)
	}
	// An old baseline without the fleet section warns, never fails.
	noFleetBase := *rep
	noFleetBase.Fleet = nil
	v0, w0 := CompareBenchReports(&noFleetBase, back, 0.10)
	if len(v0) != 0 {
		t.Fatalf("fleet section gated against fleet-less baseline: %v", v0)
	}
	if len(w0) != 1 {
		t.Fatalf("want 1 fleet-missing-from-baseline warning, got %v", w0)
	}
	// A system the baseline does not know warns but never fails: growing the
	// suite must not require a new baseline in the same change.
	oldBase := *rep
	oldBase.Systems = rep.Systems[:len(rep.Systems)-1]
	v, w := CompareBenchReports(&oldBase, back, 0.10)
	if len(v) != 0 {
		t.Fatalf("new system gated against old baseline: %v", v)
	}
	if len(w) != 1 {
		t.Fatalf("want 1 missing-from-baseline warning, got %v", w)
	}
	// And the reverse: a system dropped from the current report warns too.
	v, w = CompareBenchReports(rep, &oldBase, 0.10)
	if len(v) != 0 || len(w) != 1 {
		t.Fatalf("dropped system: violations %v warnings %v", v, w)
	}
}

func TestPairedOverheadMedian(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	// One pair a GC or a host stall hit hard does not move the median.
	if got := pairedOverhead(ms(10, 10, 10, 10, 10), ms(11, 11, 11, 11, 40)); got < 0.0999 || got > 0.1001 {
		t.Fatalf("odd pairs: overhead %.4f, want 0.10", got)
	}
	// Even pair counts take the mean of the middle two ratios.
	if got := pairedOverhead(ms(10, 10, 10, 10), ms(9, 10, 12, 30)); got < 0.0999 || got > 0.1001 {
		t.Fatalf("even pairs: overhead %.4f, want 0.10", got)
	}
	if got := pairedOverhead(nil, nil); got != 0 {
		t.Fatalf("no pairs: overhead %.4f, want 0", got)
	}
}
