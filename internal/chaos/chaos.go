// Package chaos builds deterministic randomized fault schedules for the
// serving stack's chaos conformance suite (chaos_test.go) and for manual
// daemon chaos drills via NODEDP_FAILPOINTS.
//
// A schedule is a fault.Arm spec string derived entirely from one seed:
// the same seed always arms the same sites with the same policies and the
// same per-site PRNG seeds, so a failing chaos run is replayed exactly by
// re-running its seed. Schedules arm only contract-preserving sites —
// every injected failure is one the stack promises to absorb (typed error,
// retry, refund, or certified fallback). The deliberate invariant-breaker
// privacy.refund is never armed: it exists to prove the conformance tests
// can detect a broken refund path, not to pass them.
//
// Solver-internal sites (lp.incremental.*) are armed for completeness but
// rarely fire through the HTTP workload: the exact-certified float fast
// path serves typical uploads without standing solvers. Their dedicated
// conformance lives in internal/forestlp's fault tests, which force the
// incremental engine and certify bit-identical fallback.
package chaos

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// ProbSites are armed with a probability policy: each hit is cheap to
// retry (one response write, one ledger reservation, one snapshot write),
// so a seeded coin per hit yields dense, varied interleavings.
var ProbSites = []string{
	"snapshot.encode",
	"snapshot.decode",
	"snapshot.write.sync",
	"snapshot.write.rename",
	"httpapi.write",
	"lp.incremental.distress",
}

// NthSites are armed with a fire-once nth policy: they gate plan builds,
// where a probability policy would fail almost every build (a build hits
// the site once per cutting-plane solve) and starve the workload.
var NthSites = []string{
	"maxflow.arena",
	"core.cache.admit",
}

// DeltaSites fire at live-graph mutation boundaries: the fingerprint-update
// failpoint inside Session.ApplyDelta (whose contract is that a failed
// delta commits nothing — the session keeps serving the pre-delta graph
// and snapshot), and the sub-plan
// admission and merge failpoints in the component-assembly planner (whose
// contract is that a fault-tainted component evaluation never enters the
// sub-plan cache and a failed merge never forms a whole-graph plan).
var DeltaSites = []string{
	"serve.delta.fp",
	"core.subplan.admit",
	"core.subplan.merge",
}

// RandomDeltaSchedule extends RandomSchedule(seed) with arms for the
// DeltaSites. The extension draws from its own PRNG stream and is appended
// after the base spec, so the base schedule of every seed — including the
// load-bearing 412 — stays byte-identical to RandomSchedule's output.
// serve.delta.fp is always armed: every delta schedule exercises the
// failed-delta path at least probabilistically.
func RandomDeltaSchedule(seed uint64) string {
	rng := rand.New(rand.NewPCG(seed, seed^0x64656c7461)) // "delta" lane
	probs := []float64{0.2, 0.3}
	terms := []string{RandomSchedule(seed)}
	terms = append(terms, fmt.Sprintf("serve.delta.fp=prob:%g:%d",
		probs[rng.IntN(len(probs))], seed*1000+200))
	for i, site := range DeltaSites[1:] {
		p := probs[rng.IntN(len(probs))]
		if rng.Float64() < 0.5 {
			continue
		}
		terms = append(terms, fmt.Sprintf("%s=prob:%g:%d", site, p, seed*1000+201+uint64(i)))
	}
	return strings.Join(terms, ";")
}

// RandomSchedule derives a fault spec from seed. Each eligible site is
// included with probability 1/2; included ProbSites draw a firing
// probability from {0.05, 0.15, 0.3} and a per-site seed, included
// NthSites draw a hit index in [1, 5]. privacy.reserve is always armed
// with a panic action so every schedule exercises the per-request panic
// containment in front of the ledger.
func RandomSchedule(seed uint64) string {
	rng := rand.New(rand.NewPCG(seed, seed))
	probs := []float64{0.05, 0.15, 0.3}
	var terms []string
	for i, site := range ProbSites {
		p := probs[rng.IntN(len(probs))]
		if rng.Float64() < 0.5 {
			continue
		}
		terms = append(terms, fmt.Sprintf("%s=prob:%g:%d", site, p, seed*1000+uint64(i)))
	}
	for _, site := range NthSites {
		n := 1 + rng.IntN(5)
		if rng.Float64() < 0.5 {
			continue
		}
		terms = append(terms, fmt.Sprintf("%s=nth:%d", site, n))
	}
	terms = append(terms, fmt.Sprintf("privacy.reserve=prob:0.2:%d:panic", seed*1000+99))
	return strings.Join(terms, ";")
}
