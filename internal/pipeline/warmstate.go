package pipeline

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"

	"icfp/internal/bpred"
	"icfp/internal/mem"
	"icfp/internal/workload"
)

// WarmState returns a private hierarchy (configured with hierCfg) and
// predictor functionally warmed over trace indexes [0, upto) of w — the
// machine-independent warmed state a detailed window starts from.
//
// The warmed state is a checkpoint shared through the workload itself:
// all machines whose cache geometry and predictor configuration agree
// (the common case — every model in a sweep runs the Table 1 memory
// system) share one warm-state series per workload, keyed by the
// canonical encoding of the geometry (mem.Config.Geometry) and the
// predictor configuration. Timing is excluded: functional warming and
// the workload's Prewarm hook touch tag state only, so an L2-latency
// sweep warms each workload once, and every clone handed out carries the
// caller's own timing fields. The series warms each prefix once —
// extending incrementally from the longest previously warmed prefix, so
// a sampled run's k window starts cost one pass over the trace, not k —
// and hands out exact clones, so a registry sweep warms once per
// workload instead of once per job. Exactness of the clones (a run
// started from a clone is byte-identical to a run started from directly
// warmed state, at any timing) is pinned by the warm-state equivalence
// tests and, transitively, by the committed -all golden.
func WarmState(w *workload.Workload, hierCfg mem.Config, bpredCfg bpred.Config, upto int) (*mem.Hierarchy, *bpred.Predictor) {
	geom := hierCfg.Geometry()
	key := warmKey(geom, bpredCfg)
	s := w.SharedState(key, func() any {
		return &warmSeries{w: w, geom: geom, bpredCfg: bpredCfg}
	}).(*warmSeries)
	hier, pred := s.at(upto)
	return hier.CloneAs(hierCfg), pred.Clone()
}

// warmKey is the shared-state key of a warm series: machines agree on
// warmed state exactly when they agree on the cache geometry and the
// predictor configuration. Struct JSON marshalling has a fixed field
// order, so the encoding is deterministic.
func warmKey(geom mem.Config, bpredCfg bpred.Config) string {
	b, err := json.Marshal(struct {
		H mem.Config
		B bpred.Config
	}{geom, bpredCfg})
	if err != nil {
		panic(fmt.Sprintf("pipeline: warm-state key encoding: %v", err))
	}
	return "pipeline.warm:" + string(b)
}

// warmSeries holds warmed-state masters for one (workload, cache
// geometry, predictor config) triple at increasing trace prefixes. The
// masters' hierarchies carry the geometry with zero timing.
type warmSeries struct {
	w        *workload.Workload
	geom     mem.Config
	bpredCfg bpred.Config

	mu      sync.Mutex
	masters []warmMaster // ascending by upto
}

// warmMaster is the warmed state after functionally replaying [0, upto).
// Masters are immutable once stored; callers always receive clones.
type warmMaster struct {
	upto int
	hier *mem.Hierarchy
	pred *bpred.Predictor
}

// at returns the master warmed to upto, creating it — by extending a
// clone of the longest existing shorter master — if needed. The caller
// must clone the result before use. Window starts ascend within a run
// and coincide across machines running the same policy, so in the
// steady state every call either returns an existing master or extends
// the newest one by a single inter-window gap.
func (s *warmSeries) at(upto int) (*mem.Hierarchy, *bpred.Predictor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Largest master with .upto <= upto.
	i := sort.Search(len(s.masters), func(i int) bool { return s.masters[i].upto > upto }) - 1
	if i >= 0 && s.masters[i].upto == upto {
		return s.masters[i].hier, s.masters[i].pred
	}
	var hier *mem.Hierarchy
	var pred *bpred.Predictor
	lo := 0
	if i >= 0 {
		hier = s.masters[i].hier.Clone()
		pred = s.masters[i].pred.Clone()
		lo = s.masters[i].upto
	} else {
		hier = mem.New(s.geom)
		if s.w.Prewarm != nil {
			s.w.Prewarm(hier)
		}
		pred = bpred.New(s.bpredCfg)
	}
	WarmRange(hier, pred, s.w.Trace, lo, upto)
	s.masters = slices.Insert(s.masters, i+1, warmMaster{upto: upto, hier: hier, pred: pred})
	return hier, pred
}
