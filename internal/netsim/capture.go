package netsim

import (
	"fmt"

	"nestless/internal/sim"
)

// Direction tags a captured frame.
type Direction uint8

// Capture directions.
const (
	DirTX Direction = iota
	DirRX
)

// String names the direction.
func (d Direction) String() string {
	if d == DirTX {
		return "tx"
	}
	return "rx"
}

// CaptureRecord is one captured frame with its timestamp.
type CaptureRecord struct {
	At    sim.Time
	Dir   Direction
	Iface string
	Frame *Frame
}

// Capture is a tcpdump-style probe attached to one interface: every
// frame transmitted or delivered is recorded (headers cloned, payload
// metadata shared). Useful for debugging topologies and for asserting
// datapaths in tests — e.g. proving no frame of a BrFusion pod ever
// crosses the in-VM bridge.
type Capture struct {
	iface   *Iface
	eng     *sim.Engine
	records []CaptureRecord
	limit   int
}

// AttachCapture installs a probe on the interface. limit bounds stored
// records (0 = unlimited). Only one capture per interface; attaching
// again replaces the previous probe.
func AttachCapture(i *Iface, limit int) *Capture {
	c := &Capture{iface: i, eng: i.NS.Net.Eng, limit: limit}
	i.probe = func(dir Direction, f *Frame) {
		if c.limit > 0 && len(c.records) >= c.limit {
			return
		}
		c.records = append(c.records, CaptureRecord{
			At:    c.eng.Now(),
			Dir:   dir,
			Iface: i.Name,
			Frame: f.Clone(),
		})
	}
	return c
}

// Detach removes the probe.
func (c *Capture) Detach() {
	if c.iface.probe != nil {
		c.iface.probe = nil
	}
}

// Records returns the captured frames in order.
func (c *Capture) Records() []CaptureRecord {
	return append([]CaptureRecord(nil), c.records...)
}

// String renders one record for diagnostics.
func (r CaptureRecord) String() string {
	return fmt.Sprintf("%v %s %s %v", r.At, r.Iface, r.Dir, r.Frame)
}
