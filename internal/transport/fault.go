// Deterministic fault injection for the fabric (the chaos-test substrate).
//
// A FaultPlan is a list of rules matched against every fabric operation
// (Send, Recv, ReadMulti, Call) by operation kind, medium and endpoint
// cores. A matching rule fires either probabilistically — the decision for the
// rule's n-th match is a pure function of (plan seed, rule index, n), so
// the number of faults injected out of N matched operations is identical
// across runs — or on an explicit scripted window of match sequence
// numbers, which models an endpoint going dark for a bounded stretch and
// then healing. Fired rules inject a delay (the operation proceeds after
// sleeping) or an error (the operation fails before any side effect: no
// bytes are metered, no message is delivered, no payload is copied), which
// is what the retry layers above recover from.
package transport

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/insitu/cods/internal/cluster"
	"github.com/insitu/cods/internal/obs"
)

// ErrInjected marks an error produced by the fault injector rather than a
// real condition of the fabric. It is Transient.
var ErrInjected = Transient(errors.New("injected fault"))

// Fault-injection instruments, one counter per faultable operation kind
// plus a histogram of injected delays.
var (
	obsFaults = [4]*obs.Counter{
		obs.C("transport.faults.send"),
		obs.C("transport.faults.recv"),
		obs.C("transport.faults.read"),
		obs.C("transport.faults.call"),
	}
	obsFaultDelayNs = obs.H("transport.faults.delay_ns", obs.DefaultLatencyBounds())
)

// FaultOp names the fabric operation a rule applies to.
type FaultOp uint8

// Faultable operations.
const (
	FaultSend FaultOp = iota
	FaultRecv
	FaultRead
	FaultCall
	faultOpCount
	faultAnyOp // matches every operation
)

// String names the operation.
func (o FaultOp) String() string {
	switch o {
	case FaultSend:
		return "send"
	case FaultRecv:
		return "recv"
	case FaultRead:
		return "read"
	case FaultCall:
		return "call"
	default:
		return "any"
	}
}

// fault modes.
const (
	modeError uint8 = iota // fail the operation with ErrInjected
	modeDelay              // sleep, then let the operation proceed
)

// medium match values: cluster.SharedMemory, cluster.Network, or anyMedium.
const (
	anyMedium = -1
	anyCore   = -1
)

// FaultRule is the JSON form of one injection rule. Omitted src/dst/medium
// match any; a rule fires either with probability Prob per match or on the
// scripted window [FromOp, ToOp) of its own match counter, and stops for
// good after Max fires (0 = unlimited).
type FaultRule struct {
	// Op selects the operation kind: "send", "recv", "read", "call" or
	// "any".
	Op string `json:"op"`
	// Medium restricts the rule to one transfer medium: "shm", "network"
	// or "any" (default). Recv from AnySource has no determinable medium
	// and only matches medium-agnostic rules.
	Medium string `json:"medium,omitempty"`
	// Src/Dst restrict the rule to an initiating / serving core (for a read,
	// Dst is the owner of the buffer; for Recv, Dst is the receiving
	// core). nil matches any core.
	Src *int `json:"src,omitempty"`
	Dst *int `json:"dst,omitempty"`
	// Mode is "error" (fail the operation), "drop" (synonym for error:
	// the operation does not happen and the caller is told) or "delay".
	Mode string `json:"mode"`
	// Prob fires the rule on each match with this probability, decided
	// deterministically from the plan seed and the rule's match counter.
	Prob float64 `json:"prob,omitempty"`
	// FromOp/ToOp script a firing window on the rule's match counter
	// instead of a probability: matches FromOp <= n < ToOp fire.
	FromOp int64 `json:"from_op,omitempty"`
	ToOp   int64 `json:"to_op,omitempty"`
	// DelayUS is the injected delay in microseconds (delay mode only).
	DelayUS int64 `json:"delay_us,omitempty"`
	// Max bounds the total number of fires of this rule (0 = unlimited).
	// Probabilistic error rules in chaos tests set it so that recovery is
	// guaranteed to terminate.
	Max int64 `json:"max,omitempty"`
}

// compiledRule is the validated runtime form of a FaultRule.
type compiledRule struct {
	op      FaultOp // faultAnyOp = all
	medium  int     // cluster.Medium or anyMedium
	src     int     // core or anyCore
	dst     int     // core or anyCore
	mode    uint8
	prob    float64
	fromOp  int64
	toOp    int64 // only meaningful when prob == 0
	delay   time.Duration
	max     int64
	matches atomic.Int64
	fires   atomic.Int64
}

// FaultPlan is a compiled, installable set of injection rules. A plan
// carries its own match/fire counters, so installing the same *FaultPlan
// twice continues its sequence; parse a fresh plan for a fresh sequence.
type FaultPlan struct {
	seed     uint64
	rules    []*compiledRule
	injected atomic.Int64 // error-mode fires
	delayed  atomic.Int64 // delay-mode fires
}

// planJSON is the wire form of a plan.
type planJSON struct {
	Seed  uint64      `json:"seed"`
	Rules []FaultRule `json:"rules"`
}

// ParseFaultPlan loads and validates a fault plan from its JSON form.
// Malformed input returns an error, never a partially applied plan.
func ParseFaultPlan(data []byte) (*FaultPlan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var pj planJSON
	if err := dec.Decode(&pj); err != nil {
		return nil, fmt.Errorf("transport: fault plan: %w", err)
	}
	// Trailing garbage after the plan object is an error, not ignored.
	if dec.More() {
		return nil, fmt.Errorf("transport: fault plan: trailing data after plan object")
	}
	if len(pj.Rules) == 0 {
		return nil, fmt.Errorf("transport: fault plan has no rules")
	}
	p := &FaultPlan{seed: pj.Seed, rules: make([]*compiledRule, 0, len(pj.Rules))}
	for i, r := range pj.Rules {
		cr, err := compileRule(r)
		if err != nil {
			return nil, fmt.Errorf("transport: fault plan rule %d: %w", i, err)
		}
		p.rules = append(p.rules, cr)
	}
	return p, nil
}

func compileRule(r FaultRule) (*compiledRule, error) {
	cr := &compiledRule{src: anyCore, dst: anyCore, medium: anyMedium}
	switch r.Op {
	case "send":
		cr.op = FaultSend
	case "recv":
		cr.op = FaultRecv
	case "read":
		cr.op = FaultRead
	case "call":
		cr.op = FaultCall
	case "any":
		cr.op = faultAnyOp
	default:
		return nil, fmt.Errorf("unknown op %q (want send, recv, read, call or any)", r.Op)
	}
	switch r.Medium {
	case "", "any":
		cr.medium = anyMedium
	case "shm":
		cr.medium = int(cluster.SharedMemory)
	case "network":
		cr.medium = int(cluster.Network)
	default:
		return nil, fmt.Errorf("unknown medium %q (want shm, network or any)", r.Medium)
	}
	if r.Src != nil {
		if *r.Src < 0 {
			return nil, fmt.Errorf("negative src core %d", *r.Src)
		}
		cr.src = *r.Src
	}
	if r.Dst != nil {
		if *r.Dst < 0 {
			return nil, fmt.Errorf("negative dst core %d", *r.Dst)
		}
		cr.dst = *r.Dst
	}
	switch r.Mode {
	case "error", "drop":
		cr.mode = modeError
	case "delay":
		cr.mode = modeDelay
		if r.DelayUS <= 0 {
			return nil, fmt.Errorf("delay mode needs delay_us > 0, got %d", r.DelayUS)
		}
	default:
		return nil, fmt.Errorf("unknown mode %q (want error, drop or delay)", r.Mode)
	}
	if r.DelayUS < 0 {
		return nil, fmt.Errorf("negative delay_us %d", r.DelayUS)
	}
	// A per-operation delay beyond one second is a misconfiguration, not a
	// plausible stall model; rejecting it also keeps fuzzed plans from
	// wedging the loader's callers.
	if r.DelayUS > 1_000_000 {
		return nil, fmt.Errorf("delay_us %d exceeds the 1s bound", r.DelayUS)
	}
	cr.delay = time.Duration(r.DelayUS) * time.Microsecond
	if r.Prob < 0 || r.Prob > 1 {
		return nil, fmt.Errorf("prob %v outside [0, 1]", r.Prob)
	}
	cr.prob = r.Prob
	if r.FromOp < 0 || r.ToOp < 0 {
		return nil, fmt.Errorf("negative op window [%d, %d)", r.FromOp, r.ToOp)
	}
	if r.Prob == 0 && r.ToOp <= r.FromOp {
		return nil, fmt.Errorf("rule fires never: prob 0 and empty window [%d, %d)", r.FromOp, r.ToOp)
	}
	if r.Prob > 0 && (r.FromOp != 0 || r.ToOp != 0) {
		return nil, fmt.Errorf("prob and op window are mutually exclusive")
	}
	cr.fromOp, cr.toOp = r.FromOp, r.ToOp
	if r.Max < 0 {
		return nil, fmt.Errorf("negative max %d", r.Max)
	}
	cr.max = r.Max
	return cr, nil
}

// Injected returns the number of error faults the plan has injected.
func (p *FaultPlan) Injected() int64 { return p.injected.Load() }

// Delayed returns the number of delay faults the plan has injected.
func (p *FaultPlan) Delayed() int64 { return p.delayed.Load() }

// splitmix64 is the SplitMix64 finalizer; the probabilistic fire decision
// for a rule's n-th match is unit(splitmix64(seed ^ mix(rule, n))) < prob,
// a pure function with no shared RNG state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fires decides whether the rule's n-th match (0-based) fires, given the
// plan seed and the rule's index.
func (r *compiledRule) firesAt(seed uint64, idx int, n int64) bool {
	if r.prob > 0 {
		h := splitmix64(seed ^ uint64(idx)<<40 ^ uint64(n))
		return float64(h>>11)/float64(1<<53) < r.prob
	}
	return n >= r.fromOp && n < r.toOp
}

// matches reports whether the rule applies to an operation.
func (r *compiledRule) matchesOp(op FaultOp, md int, src, dst int) bool {
	if r.op != faultAnyOp && r.op != op {
		return false
	}
	if r.medium != anyMedium && r.medium != md {
		return false
	}
	if r.src != anyCore && r.src != src {
		return false
	}
	if r.dst != anyCore && r.dst != dst {
		return false
	}
	return true
}

// SetFaultPlan installs a fault plan on the fabric (nil removes it). Safe
// to call concurrently with fabric traffic; with no plan installed the
// only cost on every operation is one atomic pointer load.
func (f *Fabric) SetFaultPlan(p *FaultPlan) { f.fault.Store(p) }

// FaultsInjected returns the total number of error faults injected into
// this fabric since creation, across all plans it has carried. It counts
// independently of the obs registry so chaos tests and reports can assert
// on it with observability disabled.
func (f *Fabric) FaultsInjected() int64 { return f.faultsInjected.Load() }

// inject consults the installed fault plan for one operation. md is a
// cluster.Medium or anyMedium when the medium is not determinable (Recv
// from AnySource). It returns a non-nil error when an error fault fired;
// delay faults sleep here and return nil. Rules are evaluated in plan
// order: every fired delay accumulates, the first fired error wins.
func (f *Fabric) inject(op FaultOp, md int, src, dst cluster.CoreID) error {
	p := f.fault.Load()
	if p == nil {
		return nil
	}
	var delay time.Duration
	for i, r := range p.rules {
		if !r.matchesOp(op, md, int(src), int(dst)) {
			continue
		}
		n := r.matches.Add(1) - 1
		if !r.firesAt(p.seed, i, n) {
			continue
		}
		if r.max > 0 && r.fires.Add(1) > r.max {
			continue
		} else if r.max == 0 {
			r.fires.Add(1)
		}
		if r.mode == modeDelay {
			delay += r.delay
			p.delayed.Add(1)
			continue
		}
		if delay > 0 {
			time.Sleep(delay)
			obsFaultDelayNs.Observe(delay.Nanoseconds())
		}
		p.injected.Add(1)
		f.faultsInjected.Add(1)
		obsFaults[op].Inc()
		return fmt.Errorf("transport: %s %d->%d: %w (match %d)", op, src, dst, ErrInjected, n)
	}
	if delay > 0 {
		time.Sleep(delay)
		obsFaultDelayNs.Observe(delay.Nanoseconds())
	}
	return nil
}
