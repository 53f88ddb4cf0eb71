package platform

import (
	"fmt"
	"time"
)

// Point is one experiment point: a process count plus a workload. Procs
// includes the sink (process 0); every other process is a closed-loop
// generator sending Messages messages of Size bytes at the given
// concurrency. The json names are the control channel's and the runfile's.
type Point struct {
	// Name labels the point in benchmark output. Auto-derived from the
	// workload when empty.
	Name string `json:"name,omitempty"`
	// Procs is the total process count including the sink. Minimum 2.
	Procs int `json:"procs"`
	// Messages is the per-generator message count.
	Messages int `json:"messages"`
	// Size is the message payload size in bytes.
	Size int `json:"size"`
	// Concurrency is the per-generator outstanding-message window. Default 8.
	Concurrency int `json:"concurrency,omitempty"`
	// Port is the MTP service port on the sink. Default 7.
	Port uint16 `json:"port,omitempty"`
	// CC selects the congestion controller (empty = node default).
	CC string `json:"cc,omitempty"`
	// MSS overrides the message segment size (0 = node default).
	MSS int `json:"mss,omitempty"`
	// RTOMillis overrides the retransmission timeout (0 = node default).
	RTOMillis int `json:"rto_ms,omitempty"`
}

// label returns the point's display name, deriving one when unset.
func (p Point) label() string {
	if p.Name != "" {
		return p.Name
	}
	return fmt.Sprintf("p%d_m%d_s%d", p.Procs, p.Messages, p.Size)
}

// rto converts the runfile's integer milliseconds to a duration.
func (p Point) rto() time.Duration { return time.Duration(p.RTOMillis) * time.Millisecond }

// Checked fills the two defaults and rejects a point that could not run: a
// window below one would block or panic the generator's send loop inside a
// worker process, where it surfaces only as a heartbeat death.
func (p Point) Checked() (Point, error) {
	if p.Concurrency == 0 {
		p.Concurrency = 8
	}
	if p.Port == 0 {
		p.Port = 7
	}
	for _, c := range []struct {
		bad  bool
		what string
	}{
		{p.Procs < 2, fmt.Sprintf("procs = %d, need >= 2 (sink + generators)", p.Procs)},
		{p.Messages < 1, fmt.Sprintf("messages = %d, need >= 1", p.Messages)},
		{p.Size < 1, fmt.Sprintf("size = %d, need >= 1", p.Size)},
		{p.Concurrency < 1, fmt.Sprintf("concurrency = %d, need >= 1", p.Concurrency)},
		{p.MSS != 0 && (p.MSS < 64 || p.MSS > 60000), fmt.Sprintf("mss = %d, need 64..60000", p.MSS)},
		{p.RTOMillis < 0, fmt.Sprintf("rto_ms = %d, need >= 0", p.RTOMillis)},
	} {
		if c.bad {
			return p, fmt.Errorf("point %q: %s", p.label(), c.what)
		}
	}
	return p, nil
}

// ParseRunfile parses a runfile of points (see the package comment for the
// grammar) and returns them defaulted and validated, in file order.
func ParseRunfile(data []byte) ([]Point, error) {
	rows, err := ParseRows(data)
	if err != nil {
		return nil, err
	}
	pts := make([]Point, len(rows))
	if err := BindRows(rows, func(i int, _ Row) ([]any, error) { return []any{&pts[i]}, nil }); err != nil {
		return nil, err
	}
	for i, r := range rows {
		if pts[i], err = pts[i].Checked(); err != nil {
			return nil, r.Err(err)
		}
	}
	return pts, nil
}
