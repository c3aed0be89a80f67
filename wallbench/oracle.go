package main

import (
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"tiledwall/internal/mpeg2"
	"tiledwall/internal/wall"
)

// castagnoli selects the CRC-32C polynomial, which hash/crc32 computes with
// the SSE4.2 instruction on amd64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// oracle is the serial decoder's verdict on one stream shown on one wall
// geometry: the checksum every tile must deliver for every picture, and the
// display-order facts picture latency is measured against.
type oracle struct {
	tiles int
	// crc is indexed [decode index][tile]: the wall's display hook reports
	// pictures by decode index.
	crc [][]uint32
	// required[i] is the last decode-order unit that must have been fed
	// before picture i can be displayed: i itself for a B picture, the next
	// anchor for an I or P picture (display reordering holds each anchor
	// back until the next one arrives), or the last unit at end of stream.
	required []int
	// first is the decode index of the first picture in display order.
	first int
}

// buildOracle decodes the stream serially and checksums every tile of every
// picture, cropped to the wall geometry.
func buildOracle(s *stream, m, n int) (*oracle, error) {
	o := &oracle{tiles: m * n, crc: make([][]uint32, len(s.units)), first: -1}
	var geo *wall.Geometry
	var geoErr error
	err := decodeEach(s.data, func(p mpeg2.DecodedPicture) {
		if geo == nil && geoErr == nil {
			geo, geoErr = wall.NewGeometry(p.Buf.W, p.Buf.H, m, n, 0)
		}
		if geoErr != nil || p.DecodeIndex < 0 || p.DecodeIndex >= len(o.crc) {
			return
		}
		if o.first < 0 {
			o.first = p.DecodeIndex
		}
		row := make([]uint32, o.tiles)
		for t := range row {
			row[t] = cropCRC(p.Buf, geo.Tile(t))
		}
		o.crc[p.DecodeIndex] = row
	})
	if err == nil {
		err = geoErr
	}
	if err != nil {
		return nil, fmt.Errorf("serial decode of stream %d: %w", s.spec.ID, err)
	}
	for i, row := range o.crc {
		if row == nil {
			return nil, fmt.Errorf("stream %d: serial decoder displayed no picture %d of %d units", s.spec.ID, i, len(s.units))
		}
	}
	o.required = make([]int, len(s.units))
	for i, u := range s.units {
		o.required[i] = i
		if !u.Anchor {
			continue
		}
		o.required[i] = len(s.units) - 1
		for j := i + 1; j < len(s.units); j++ {
			if s.units[j].Anchor {
				o.required[i] = j
				break
			}
		}
	}
	return o, nil
}

// cropCRC checksums the rectangle r of a full picture in the layout a tile
// frame has: luma rows, then Cb rows, then Cr rows, each cropped to r.
func cropCRC(p *mpeg2.PixelBuf, r wall.Rect) uint32 {
	var c uint32
	for y := r.Y0; y < r.Y1; y++ {
		c = crc32.Update(c, castagnoli, p.Y[y*p.W+r.X0:y*p.W+r.X1])
	}
	cw := p.W / 2
	for _, plane := range [][]uint8{p.Cb, p.Cr} {
		for y := r.Y0 / 2; y < r.Y1/2; y++ {
			c = crc32.Update(c, castagnoli, plane[y*cw+r.X0/2:y*cw+r.X1/2])
		}
	}
	return c
}

// tileCRC checksums a delivered tile frame (its planes are stored densely).
func tileCRC(b *mpeg2.PixelBuf) uint32 {
	c := crc32.Update(0, castagnoli, b.Y)
	c = crc32.Update(c, castagnoli, b.Cb)
	return crc32.Update(c, castagnoli, b.Cr)
}

// display is the wall's display server: its onTile method is installed as
// WallConfig.OnTileFrame and checks every delivered tile against the oracle
// of the session it belongs to. It is called concurrently from every tile
// decoder.
type display struct {
	epoch time.Time

	mu       sync.RWMutex
	sessions map[int]*watch
}

func newDisplay(epoch time.Time) *display {
	return &display{epoch: epoch, sessions: map[int]*watch{}}
}

// watch is one session's delivery ledger.
type watch struct {
	or   *oracle
	sub  []bool // subscribed tiles
	want int32  // subscribed tile count

	delivered []atomic.Int32 // [pic*tiles+tile] deliveries
	complete  []atomic.Int32 // [pic] subscribed tiles delivered and matching
	bad       []atomic.Bool  // [pic] mismatch, duplicate or unsubscribed tile
	doneAt    []atomic.Int64 // [pic] ns since epoch when the last tile landed
}

// track registers a session before any of its pictures is fed. sub lists the
// subscribed tiles; nil means every tile.
func (d *display) track(session int, or *oracle, sub []int) *watch {
	w := &watch{
		or:        or,
		sub:       make([]bool, or.tiles),
		delivered: make([]atomic.Int32, len(or.crc)*or.tiles),
		complete:  make([]atomic.Int32, len(or.crc)),
		bad:       make([]atomic.Bool, len(or.crc)),
		doneAt:    make([]atomic.Int64, len(or.crc)),
	}
	if sub == nil {
		for t := range w.sub {
			w.sub[t] = true
		}
		w.want = int32(or.tiles)
	} else {
		for _, t := range sub {
			w.sub[t] = true
		}
		w.want = int32(len(sub))
	}
	d.mu.Lock()
	d.sessions[session] = w
	d.mu.Unlock()
	return w
}

// forget drops a finished session's ledger.
func (d *display) forget(session int) {
	d.mu.Lock()
	delete(d.sessions, session)
	d.mu.Unlock()
}

// onTile is the display hook. A tile frame from an unknown session, for an
// unknown picture, for a tile outside the subscription, delivered twice, or
// with the wrong checksum marks its picture bad.
func (d *display) onTile(session, pic, tile int, buf *mpeg2.PixelBuf) {
	now := int64(time.Since(d.epoch))
	sum := tileCRC(buf)
	buf.Release()
	d.mu.RLock()
	w := d.sessions[session]
	d.mu.RUnlock()
	if w == nil || pic < 0 || pic >= len(w.complete) || tile < 0 || tile >= w.or.tiles {
		return
	}
	first := w.delivered[pic*w.or.tiles+tile].Add(1) == 1
	if !first || !w.sub[tile] || sum != w.or.crc[pic][tile] {
		w.bad[pic].Store(true)
		return
	}
	if w.complete[pic].Add(1) == w.want {
		w.doneAt[pic].Store(now)
	}
}

// verdict reports whether picture pic was shown correctly: every subscribed
// tile delivered exactly once with the serial decoder's pixels. Call after
// the session's Close returned, when no more tiles arrive.
func (w *watch) verdict(pic int) bool {
	return !w.bad[pic].Load() && w.complete[pic].Load() == w.want
}
