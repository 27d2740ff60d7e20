package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"ncache/internal/sim"
)

// Presets name the canonical degradation schedules the fig-fault experiment
// sweeps. Targets use the testbed's site names: "client*" selects both
// directions of every client link, "disk*" every arm in the array, "app.cpu"
// the application server's scheduler.
var Presets = map[string]string{
	// frame-loss drops ~0.2% of frames on the client links — enough that
	// a multi-frame NFS reply is regularly holed and the RPC layer must
	// retransmit.
	"frame-loss": "drop:client*:rate=0.002",
	// slow-disk gives one in five disk I/Os a 2 ms latency spike
	// (in-drive retry / recalibration territory for the paper's IDE
	// arms).
	"slow-disk": "slowdisk:disk*:rate=0.2:delay=2ms",
	// cpu-burst steals the application server's CPU for 500 µs roughly
	// every 2 ms — ~25% contention from outside the data path.
	"cpu-burst": "cpuburst:app.cpu:period=2ms:delay=500us",
	// arm-outage hard-fails every disk I/O on the second mirror arm of
	// target 0 (site prefix s0m1.disk) until the error budget is spent —
	// the canonical failover → circuit-open → recovery → resync schedule
	// for mirrored volumes. Requires a cluster built with Arms ≥ 2.
	"arm-outage": "diskerr:s0m1.disk*:rate=1:count=120",
}

// ParseSpec parses a fault specification: either a preset name or a
// comma-separated list of schedules, each
//
//	<class>:<target>[:key=value]...
//
// with classes drop, corrupt, delay, slowdisk, diskerr, cpuburst, kill and
// keys rate (probability), delay/period/start/end (Go durations, virtual
// time) and count (max injections). kill is rate-free: it crashes the
// matching registered node(s) once, exactly at start=. Example:
//
//	drop:client*:rate=0.01,slowdisk:disk0:rate=0.5:delay=5ms:start=100ms
func ParseSpec(spec string) ([]Schedule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	if p, ok := Presets[spec]; ok {
		spec = p
	}
	var out []Schedule
	for _, item := range strings.Split(spec, ",") {
		s, err := parseItem(strings.TrimSpace(item))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// parseItem parses one schedule clause.
func parseItem(item string) (Schedule, error) {
	var s Schedule
	parts := strings.Split(item, ":")
	if len(parts) < 2 {
		return s, fmt.Errorf("fault: %q: want <class>:<target>[:key=value]...", item)
	}
	cls, err := parseClass(parts[0])
	if err != nil {
		return s, err
	}
	s.Class = cls
	s.Target = parts[1]
	for _, kv := range parts[2:] {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return s, fmt.Errorf("fault: %q: option %q is not key=value", item, kv)
		}
		key, val := kv[:eq], kv[eq+1:]
		switch key {
		case "rate":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil || r < 0 || r > 1 {
				return s, fmt.Errorf("fault: %q: rate %q must be in [0,1]", item, val)
			}
			s.Rate = r
		case "delay":
			d, err := parseDur(val)
			if err != nil {
				return s, fmt.Errorf("fault: %q: %v", item, err)
			}
			s.Delay = d
		case "period":
			d, err := parseDur(val)
			if err != nil {
				return s, fmt.Errorf("fault: %q: %v", item, err)
			}
			s.Period = d
		case "start":
			d, err := parseDur(val)
			if err != nil {
				return s, fmt.Errorf("fault: %q: %v", item, err)
			}
			s.Start = sim.Time(d)
		case "end":
			d, err := parseDur(val)
			if err != nil {
				return s, fmt.Errorf("fault: %q: %v", item, err)
			}
			s.End = sim.Time(d)
		case "count":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return s, fmt.Errorf("fault: %q: bad count %q", item, val)
			}
			s.Count = n
		default:
			return s, fmt.Errorf("fault: %q: unknown option %q", item, key)
		}
	}
	return s, validate(item, s)
}

// parseClass maps a grammar token to a Class.
func parseClass(tok string) (Class, error) {
	for c := Class(0); c < NumClasses; c++ {
		if classNames[c] == tok {
			return c, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown class %q (want one of %s)",
		tok, strings.Join(classNames[:], ", "))
}

// parseDur parses a Go duration into virtual time.
func parseDur(val string) (sim.Duration, error) {
	d, err := time.ParseDuration(val)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad duration %q", val)
	}
	return sim.Duration(d), nil
}

// validate rejects schedules that can never fire or would misbehave.
func validate(item string, s Schedule) error {
	switch s.Class {
	case CPUBurst:
		if s.Period <= 0 || s.Delay <= 0 {
			return fmt.Errorf("fault: %q: cpuburst needs period= and delay=", item)
		}
	case FrameDelay, DiskSlow:
		if s.Rate <= 0 || s.Delay <= 0 {
			return fmt.Errorf("fault: %q: %s needs rate= and delay=", item, s.Class)
		}
	case NodeKill:
		if s.Start <= 0 {
			return fmt.Errorf("fault: %q: kill needs start= (the crash instant)", item)
		}
		if s.Rate != 0 {
			return fmt.Errorf("fault: %q: kill is deterministic — no rate=", item)
		}
	default:
		if s.Rate <= 0 {
			return fmt.Errorf("fault: %q: %s needs rate=", item, s.Class)
		}
	}
	if s.End > 0 && s.End < s.Start {
		return fmt.Errorf("fault: %q: end before start", item)
	}
	return nil
}

// NewFromSpec builds an injector with every schedule in spec installed.
func NewFromSpec(eng *sim.Engine, seed uint64, spec string) (*Injector, error) {
	ss, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	if len(ss) == 0 {
		return nil, nil
	}
	in := New(eng, seed)
	for _, s := range ss {
		in.Add(s)
	}
	return in, nil
}
