package core

// Additional neighborhood measures beyond the paper's three targets.
// They fall out of the same sketch machinery: resource allocation is the
// matched-register estimator with weight 1/d(w) instead of 1/ln d(w);
// cosine similarity and preferential attachment are algebra over the
// Jaccard estimate and the degree counters. They are provided because a
// production link-prediction deployment almost always wants to compare
// measures, and because they exercise the generality of the
// matched-register construction (DESIGN.md §2.3). The formulas live in
// the shared measure kernel (measure_kernel.go); these wrappers only
// name them.

// EstimateResourceAllocation returns the estimate of the resource
// allocation index RA(u, v) = Σ_{w ∈ N(u)∩N(v)} 1/d(w), using the
// matched-register construction with the store's live degree estimates.
// Degrees are clamped at 2 for the same reason as Adamic–Adar weights
// (a true common neighbor always has degree >= 2).
func (s *SketchStore) EstimateResourceAllocation(u, v uint64) float64 {
	f, _ := s.Estimate(QueryResourceAllocation, u, v)
	return f
}

// EstimatePreferentialAttachment returns d(u)·d(v) under the store's
// degree estimates — exact in DegreeArrivals mode on duplicate-free
// streams.
func (s *SketchStore) EstimatePreferentialAttachment(u, v uint64) float64 {
	f, _ := s.Estimate(QueryPreferentialAttachment, u, v)
	return f
}

// EstimateCosine returns the estimated cosine (Salton) similarity
// |N(u)∩N(v)| / sqrt(d(u)·d(v)), derived from the common-neighbor
// estimate and the degree counters. Pairs involving unknown or isolated
// vertices score 0.
func (s *SketchStore) EstimateCosine(u, v uint64) float64 {
	f, _ := s.Estimate(QueryCosine, u, v)
	return f
}
