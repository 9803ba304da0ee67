package server

import (
	"sync/atomic"
	"time"

	"chronos/internal/ring"
)

// ringState is one immutable view of the fleet: the consistent-hash ring
// over the member URLs, which decides each escrow tenant's pool owner, plus
// per-peer lease-call state. Membership changes (SetRing on SIGHUP, or the
// heartbeat monitor) swap in a whole new ringState; in-flight requests keep
// the view they started with. Plans never consult it: every replica plans
// every request it receives.
type ringState struct {
	ring  *ring.Ring
	self  string
	peers map[string]*peerState // by member URL, excluding self
}

// peerState carries what this replica knows about one peer: its base URL and
// the circuit breaker guarding escrow lease calls to it. It survives
// membership reloads for peers that remain in the fleet, so a reload does not
// reset a deliberately opened circuit.
type peerState struct {
	base    string
	breaker breaker
}

// breaker is a consecutive-failure circuit breaker with a half-open probe.
// After threshold consecutive lease-call failures the circuit opens for
// cooldown, during which lease calls to the peer are skipped (the holder
// debits only what its lease already holds) — keeping a dead pool owner from
// adding a connect-timeout to every admit that needs a top-up. When the
// cooldown expires, exactly ONE call wins the CAS in allow and becomes the
// half-open probe; everyone else keeps skipping the peer until that probe's
// verdict lands. A successful probe closes the circuit, a failed one
// re-opens it for a fresh cooldown — so a still-dead peer costs at most one
// connect-timeout per cooldown window, not threshold of them.
//
// The whole state machine lives in one atomic word (gate) so a trip is a
// single CAS: there is no window where the state says open but the deadline
// is stale, and two goroutines can never both observe the threshold
// crossing (the old Add-then-Store counter reset allowed exactly that).
type breaker struct {
	threshold int
	cooldown  time.Duration
	// failures counts consecutive failures while the circuit is closed,
	// advanced by CAS so a concurrent failure is never clobbered.
	failures atomic.Int32
	// gate encodes the state: gateClosed, gateProbing (a half-open probe is
	// in flight), or a positive open-until deadline in unix nanos.
	gate atomic.Int64
}

const (
	gateClosed  int64 = 0
	gateProbing int64 = -1
	// gateExpired is an already-elapsed open deadline: the state an aborted
	// probe restores, so the next request immediately becomes the new probe.
	gateExpired int64 = 1
)

// allow reports whether a lease call may be attempted now. Winning the
// open→probing CAS claims the single half-open probe slot; the caller MUST
// settle it by calling fail, success, or abort.
func (b *breaker) allow() bool {
	g := b.gate.Load()
	switch {
	case g == gateClosed:
		return true
	case g == gateProbing:
		return false
	default:
		if time.Now().UnixNano() < g {
			return false
		}
		return b.gate.CompareAndSwap(g, gateProbing)
	}
}

// fail records one lease-call failure: a failed half-open probe re-opens the
// circuit immediately; a closed-state failure advances the consecutive
// counter and trips at the threshold. A failure while the circuit is
// already open (an in-flight straggler) only bumps the counter — it never
// extends the open window, so a trickle of stragglers cannot postpone the
// next probe forever.
func (b *breaker) fail() {
	if b.gate.CompareAndSwap(gateProbing, time.Now().Add(b.cooldown).UnixNano()) {
		b.failures.Store(0)
		return
	}
	for {
		n := b.failures.Load()
		if !b.failures.CompareAndSwap(n, n+1) {
			continue
		}
		if int(n+1) >= b.threshold && b.gate.CompareAndSwap(gateClosed, time.Now().Add(b.cooldown).UnixNano()) {
			b.failures.Store(0)
		}
		return
	}
}

// success closes the circuit (and settles a half-open probe as passed).
func (b *breaker) success() {
	b.failures.Store(0)
	b.gate.Store(gateClosed)
}

// abort releases a claimed half-open probe slot without judging the peer
// (the client went away mid-probe, so the attempt proves nothing). The gate
// is restored to an already-expired deadline: the next request becomes the
// new probe instead of the slot leaking forever.
func (b *breaker) abort() {
	b.gate.CompareAndSwap(gateProbing, gateExpired)
}

// SetRing swaps the operator-configured fleet membership, rebuilding the
// consistent-hash ring that assigns escrow tenant pools to replicas. A zero
// Membership makes this replica a solo server that owns every tenant.
// chronosd calls this on SIGHUP alongside SetTenants, so one signal reloads
// both tenant budgets and ring membership.
//
// The configured membership is the operator's intent; the ring actually
// served from is the EFFECTIVE membership — configured minus the members
// the health monitor currently suspects dead (self is never suspect). A
// reload therefore composes with health state instead of resurrecting a
// replica the monitor just evicted.
func (s *Server) SetRing(m ring.Membership) error {
	if !m.Enabled() {
		s.health.mu.Lock()
		s.health.configured = ring.Membership{}
		s.health.suspects, s.health.fails, s.health.oks = nil, nil, nil
		s.health.mu.Unlock()
		s.applyRing("", nil)
		return nil
	}
	if err := m.Validate(); err != nil {
		return err
	}
	self := ring.NormalizeURL(m.Self)
	s.health.mu.Lock()
	s.health.configured = m
	s.health.pruneLocked(m.Members())
	members := s.health.effectiveLocked(self)
	s.health.mu.Unlock()
	s.applyRing(self, members)
	return nil
}

// applyRing swaps in a new effective ring over members (nil makes this
// replica solo). Circuit-breaker state carries over for peers present in
// both the old and new view; an evicted peer's breaker is dropped, so a
// re-admitted member starts with a closed circuit.
func (s *Server) applyRing(self string, members []string) {
	if len(members) == 0 {
		s.ringSt.Store(nil)
		return
	}
	r := ring.New(members, s.cfg.RingVirtualNodes)
	old := s.ringSt.Load()
	peers := make(map[string]*peerState, len(members))
	for _, n := range r.Nodes() {
		if n == self {
			continue
		}
		if old != nil {
			if p, ok := old.peers[n]; ok {
				peers[n] = p
				continue
			}
		}
		peers[n] = &peerState{base: n, breaker: breaker{
			threshold: s.cfg.BreakerThreshold,
			cooldown:  s.cfg.BreakerCooldown,
		}}
	}
	s.ringSt.Store(&ringState{ring: r, self: self, peers: peers})
}

// RingMembers returns the current membership view (empty on a solo
// replica). Exposed for tests and embedders.
func (s *Server) RingMembers() (self string, members []string) {
	rs := s.ringSt.Load()
	if rs == nil {
		return "", nil
	}
	return rs.self, rs.ring.Nodes()
}
