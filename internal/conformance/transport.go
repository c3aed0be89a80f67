package conformance

import (
	"fmt"

	"tiledwall/internal/mpeg2"
	"tiledwall/internal/service"
	"tiledwall/internal/wall"
)

// TransportResult is the outcome of one configuration in RunTransportMatrix:
// the same stream decoded over the in-process fabric, over the TCP socket
// transport on loopback, and (when sessions > 1) as concurrent chunk-fed
// sessions on a TCP wall. Every axis is held to the serial reference with the
// oracle's first-divergence minimiser, so byte-identity between the
// transports follows from byte-identity with the reference — and a failure
// names the transport AND the first divergent picture/macroblock/tile.
type TransportResult struct {
	Config service.Config

	FabricErr        error
	FabricDivergence *Divergence

	TCPErr        error
	TCPDivergence *Divergence

	// Session axis: sessions concurrent ragged-chunk feeds through one
	// resident TCP wall (zero values when RunTransportMatrix ran with
	// sessions <= 1).
	SessionErr        error
	SessionDivergence *Divergence
}

// Name renders the configuration in the matrix's 1-k-(m,n) notation.
func (r TransportResult) Name() string { return MatrixResult{Config: r.Config}.Name() }

// Failure returns a descriptive error for the first failing axis, or nil when
// fabric and TCP agree with the serial reference on every axis.
func (r TransportResult) Failure() error {
	switch {
	case r.FabricErr != nil:
		return fmt.Errorf("%s fabric: pipeline failed: %w", r.Name(), r.FabricErr)
	case r.FabricDivergence != nil:
		return fmt.Errorf("%s fabric: %s", r.Name(), r.FabricDivergence)
	case r.TCPErr != nil:
		return fmt.Errorf("%s tcp: pipeline failed: %w", r.Name(), r.TCPErr)
	case r.TCPDivergence != nil:
		return fmt.Errorf("%s tcp: %s", r.Name(), r.TCPDivergence)
	case r.SessionErr != nil:
		return fmt.Errorf("%s tcp sessions: pipeline failed: %w", r.Name(), r.SessionErr)
	case r.SessionDivergence != nil:
		return fmt.Errorf("%s tcp sessions: %s", r.Name(), r.SessionDivergence)
	}
	return nil
}

// RunTransportMatrix is the cross-transport conformance axis: every
// configuration decodes the stream over the in-process fabric and over the
// TCP transport on loopback (every node in this process, every hop crossing
// real sockets through the hub), and both must be byte-identical to the
// serial reference. With sessions > 1 each configuration additionally plays
// that many concurrent ragged-chunk sessions through one resident TCP wall —
// the wire framing, write batching and receive slab reuse under the same
// oracle the fabric has been held to since PR 1.
func RunTransportMatrix(stream []byte, configs []service.Config, sessions int) ([]TransportResult, error) {
	dec, err := mpeg2.NewDecoder(stream)
	if err != nil {
		return nil, fmt.Errorf("conformance: serial parse: %w", err)
	}
	ref, err := dec.DecodeAll()
	if err != nil {
		return nil, fmt.Errorf("conformance: serial decode: %w", err)
	}
	picW, picH := dec.Seq().MBWidth()*16, dec.Seq().MBHeight()*16

	out := make([]TransportResult, 0, len(configs))
	for _, cfg := range configs {
		cfg.CollectFrames = true
		geo, gerr := wall.NewGeometry(picW, picH, cfg.M, cfg.N, cfg.Overlap)
		if gerr != nil {
			geo = nil
		}
		tr := TransportResult{Config: cfg}

		fcfg := cfg
		fcfg.Transport = "fabric"
		if res, err := service.Run(stream, fcfg); err != nil {
			tr.FabricErr = err
		} else {
			tr.FabricDivergence = Diff(ref, res.Frames, geo)
		}

		tcfg := cfg
		tcfg.Transport = "tcp"
		if res, err := service.Run(stream, tcfg); err != nil {
			tr.TCPErr = err
		} else {
			tr.TCPDivergence = Diff(ref, res.Frames, geo)
		}

		if sessions > 1 {
			scfg := tcfg
			if scfg.MaxSessions < sessions {
				scfg.MaxSessions = sessions
			}
			frames, err := playSessions(stream, scfg, sessions)
			if err != nil {
				tr.SessionErr = err
			} else {
				for _, got := range frames {
					if d := Diff(ref, got, geo); d != nil {
						tr.SessionDivergence = d
						break
					}
				}
			}
		}
		out = append(out, tr)
	}
	return out, nil
}
