package core

import "math"

// This file implements the query-side estimators. All queries are
// read-only, O(K), and return 0 for pairs involving unknown vertices
// (a vertex never seen in the stream has an empty neighborhood, for
// which every measure is 0).

// pairQuery is SketchStore's side of the measure kernel (see
// measure_kernel.go): matching registers between the two sketches, the
// two degree estimates, and optionally the matched argmin ids.
func (s *SketchStore) pairQuery(u, v uint64, collect bool, idBuf []uint64) (matches, effK int, du, dv float64, known bool, ids []uint64) {
	su, sv := s.vertices[u], s.vertices[v]
	if su == nil || sv == nil {
		return 0, s.cfg.K, 0, 0, false, idBuf
	}
	matches, effK, ids = matchPrefix(s.bank.regs(su.slot), s.bank.regs(sv.slot), s.bank.argmins(su.slot), collect, idBuf)
	return matches, effK, s.degree(su), s.degree(sv), true, ids
}

// midpointDegree is the degree estimate used to weight common-neighbor
// midpoints (measure kernel hook).
func (s *SketchStore) midpointDegree(w uint64) float64 { return s.Degree(w) }

// Estimate returns the estimate of any query measure for (u, v).
func (s *SketchStore) Estimate(m QueryMeasure, u, v uint64) (float64, error) {
	return estimatePair(s, m, u, v)
}

// EstimateJaccard returns the MinHash estimate of the Jaccard coefficient
// J(u, v) = |N(u)∩N(v)| / |N(u)∪N(v)|: the fraction of registers on
// which the two sketches agree. The estimate is unbiased with
// Var = J(1−J)/K; see theory.go for the (ε, δ) bound.
func (s *SketchStore) EstimateJaccard(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryJaccard, u, v)
	return f
}

// EstimateCommonNeighbors returns the estimate of |N(u) ∩ N(v)| obtained
// by combining the Jaccard estimate with the degree counters through the
// identity |A∩B| = J/(1+J) · (|A| + |B|).
func (s *SketchStore) EstimateCommonNeighbors(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryCommonNeighbors, u, v)
	return f
}

// EstimateUnionSize returns the KMV estimate of |N(u) ∪ N(v)| computed by
// merging the two registers sets (the per-register minimum of two MinHash
// sketches is exactly the MinHash sketch of the union). It is the
// distinct-counting route to a common-neighbor estimate
// (EstimateCommonNeighborsViaUnion) and is exposed for the E7-style
// ablations.
func (s *SketchStore) EstimateUnionSize(u, v uint64) float64 {
	su, sv := s.vertices[u], s.vertices[v]
	if su == nil && sv == nil {
		return 0
	}
	if su == nil {
		return s.degree(sv)
	}
	if sv == nil {
		return s.degree(su)
	}
	uVals := s.bank.regs(su.slot)
	vVals := s.bank.regs(sv.slot)
	// The union sketch is valid only over the shared prefix on tiered
	// stores (min-k prefix property).
	n := len(uVals)
	if len(vVals) < n {
		n = len(vVals)
	}
	merged := make([]uint64, n)
	for i := range merged {
		a, b := uVals[i], vVals[i]
		if a <= b {
			merged[i] = a
		} else {
			merged[i] = b
		}
	}
	return kmvDistinct(merged, su.arrivals+sv.arrivals)
}

// EstimateCommonNeighborsViaUnion returns the common-neighbor estimate
// Ĵ · |N(u)∪N(v)|^ that uses the KMV union-size estimate instead of the
// degree counters. It needs no degree state at all but inherits the KMV
// noise; the default estimator (EstimateCommonNeighbors) is preferred
// whenever degrees are available. Kept for the design-choice ablation.
func (s *SketchStore) EstimateCommonNeighborsViaUnion(u, v uint64) float64 {
	su, sv := s.vertices[u], s.vertices[v]
	if su == nil || sv == nil {
		return 0
	}
	uVals, vVals := s.bank.regs(su.slot), s.bank.regs(sv.slot)
	kf := len(uVals)
	if len(vVals) < kf {
		kf = len(vVals)
	}
	j := float64(matchCount(uVals, vVals)) / float64(kf)
	return j * s.EstimateUnionSize(u, v)
}

// EstimateAdamicAdar returns the default (matched-register) estimate of
// AA(u, v) = Σ_{w ∈ N(u)∩N(v)} 1/ln d(w).
//
// Registers where the two sketches agree hold, by the MinHash argmin
// property, the identity of a uniformly random member of N(u)∩N(v)
// (uniform over the union conditioned on landing in the intersection).
// Averaging the Adamic–Adar weight of those sampled members estimates
// the *mean* weight over the intersection; multiplying by the estimated
// intersection size ĈN gives the sum. Weights use the store's live
// degree estimates, so they track the current stream.
func (s *SketchStore) EstimateAdamicAdar(u, v uint64) float64 {
	f, _ := estimatePair(s, QueryAdamicAdar, u, v)
	return f
}

// EstimateAdamicAdarBiased returns the vertex-biased bottom-k estimate of
// Adamic–Adar (see biased.go). It returns NaN if the store was built
// without Config.EnableBiased — a visible signal of misconfiguration
// rather than a silent zero.
func (s *SketchStore) EstimateAdamicAdarBiased(u, v uint64) float64 {
	if !s.cfg.EnableBiased {
		return math.NaN()
	}
	su, sv := s.vertices[u], s.vertices[v]
	if su == nil || sv == nil {
		return 0
	}
	return estimateAA(su.biased, sv.biased, s.aaWeight)
}
