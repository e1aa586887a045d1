package sling

// Functional construction options for Build, BuildWithStats,
// BuildOutOfCore, and NewDynamic. The zero configuration reproduces the
// paper's experimental setup (c = 0.6, ε = 0.025, δ_d = 1/n²); each
// option overrides one knob. The legacy Options struct remains available
// through WithOptions as a migration shim.

// BuildOption configures index construction. Apply options with
// sling.Build(g, sling.WithEps(0.01), sling.WithWorkers(8), ...).
type BuildOption func(*Options)

// resolveBuild folds a BuildOption list into one Options value. nil
// entries are ignored so callers can build option lists conditionally.
func resolveBuild(opts []BuildOption) *Options {
	var o Options
	for _, f := range opts {
		if f != nil {
			f(&o)
		}
	}
	return &o
}

// WithOptions applies a whole legacy Options struct at once, overriding
// anything set by earlier options.
//
// Deprecated: migration shim for pre-Querier callers that assembled an
// Options value; new code should use the individual With* options.
func WithOptions(o Options) BuildOption { return func(dst *Options) { *dst = o } }

// WithC sets the SimRank decay factor in (0, 1). Default 0.6.
func WithC(c float64) BuildOption { return func(o *Options) { o.C = c } }

// WithEps sets the worst-case additive error guaranteed per score.
// Default 0.025.
func WithEps(eps float64) BuildOption { return func(o *Options) { o.Eps = eps } }

// WithEpsD sets the additive error target for each correction factor
// d̃_k. Default ε(1−c)/2.
func WithEpsD(epsD float64) BuildOption { return func(o *Options) { o.EpsD = epsD } }

// WithTheta sets the hitting-probability pruning threshold θ of
// Algorithm 2. Default ε(1−√c)(1−c)/(4√c).
func WithTheta(theta float64) BuildOption { return func(o *Options) { o.Theta = theta } }

// WithDelta sets the overall preprocessing failure probability.
// Default 1/n.
func WithDelta(delta float64) BuildOption { return func(o *Options) { o.Delta = delta } }

// WithGamma sets the γ constant of the Section 5.2 space reduction.
// Default 10.
func WithGamma(gamma float64) BuildOption { return func(o *Options) { o.Gamma = gamma } }

// WithWorkers bounds build parallelism (Section 5.4) and the default
// fan-out of SingleSourceBatch on the built index. Default 1. The build
// hands target nodes to workers one at a time, so its passes stay
// load-balanced on skewed graphs, and the index is bit-identical at any
// worker count.
func WithWorkers(n int) BuildOption { return func(o *Options) { o.Workers = n } }

// WithSeed fixes all sampling, making builds reproducible at any worker
// count.
func WithSeed(seed uint64) BuildOption { return func(o *Options) { o.Seed = seed } }

// WithEnhance toggles the Section 5.3 accuracy enhancement (marked
// entries expanded one extra step at query time). Default off.
func WithEnhance(on bool) BuildOption { return func(o *Options) { o.Enhance = on } }

// WithSpaceReduction toggles the Section 5.2 optimization that drops
// recomputable step-1/2 HPs from the index. Default on.
func WithSpaceReduction(on bool) BuildOption {
	return func(o *Options) { o.DisableSpaceReduction = !on }
}

// WithBasicEstimator selects Algorithm 1 (fixed sample count) instead of
// the adaptive Algorithm 4 for d̃ estimation. Exists for the paper's
// Section 5.1 comparison.
func WithBasicEstimator(on bool) BuildOption {
	return func(o *Options) { o.BasicEstimator = on }
}
