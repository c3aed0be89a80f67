// HDTV playback on a one-level system: the paper's §5.3 scenario. An
// HDTV-class fish-tank stream (catalogue stream 8) plays on 1-(m,n)
// configurations of increasing size; the run shows the single splitter
// saturating once it cannot parse macroblocks as fast as the decoders
// consume them.
//
//	go run ./examples/hdtv [-frames 48] [-scale 2]
package main

import (
	"flag"
	"fmt"
	"log"

	"tiledwall/internal/catalog"
	"tiledwall/internal/service"
	"tiledwall/internal/system"
)

func main() {
	frames := flag.Int("frames", 48, "frames to encode")
	scale := flag.Int("scale", 2, "resolution divisor")
	flag.Parse()

	spec, err := catalog.ByID(8) // fish4: 1280x720 HDTV class
	if err != nil {
		log.Fatal(err)
	}
	w, h := spec.Dimensions(catalog.GenOptions{Frames: *frames, Scale: *scale})
	fmt.Printf("generating %s at %dx%d (%d frames)...\n", spec.Name, w, h, *frames)
	stream, err := spec.Generate(catalog.GenOptions{Frames: *frames, Scale: *scale})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\none-level 1-(m,n) frame rates (paper Table 5, dashed lines of Fig. 6):\n")
	for _, c := range [][2]int{{1, 1}, {2, 1}, {2, 2}, {3, 2}, {4, 2}, {4, 4}} {
		res, err := service.Run(stream, service.Config{K: 0, M: c[0], N: c[1]})
		if err != nil {
			log.Fatal(err)
		}
		// Is the splitter the pipeline bottleneck? Compare its per-picture
		// CPU cost against the slowest decoder's.
		mt := res.Modeled()
		sp := res.Splitters[0].Breakdown.Busy()
		var worst float64
		for _, d := range res.Decoders {
			if b := d.Breakdown.Busy().Seconds(); b > worst {
				worst = b
			}
		}
		who := "decoders"
		if sp.Seconds() > worst {
			who = "splitter"
		}
		fmt.Printf("  1-(%d,%d): %7.1f fps on %2d PCs   (bottleneck: %s)\n",
			c[0], c[1], mt.FPS(), res.Config.NumNodes(), who)
	}

	fmt.Printf("\ncompare with the calibration formula (§4.6):\n")
	cal, err := system.Calibrate(stream, 2, 2, 0, 12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  ts=%v per picture, td=%v per sub-picture\n", cal.TS, cal.TD)
	fmt.Printf("  recommended k for full decoder utilisation: %d\n", cal.RecommendedK(0))
	for k := 0; k <= 4; k++ {
		fmt.Printf("  predicted fps with k=%d: %.1f\n", k, cal.PredictedFPS(k))
	}
}
