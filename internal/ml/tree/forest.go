package tree

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"sortinghat/internal/obs"
)

// Forest is a Random Forest: bagged CART trees with per-split feature
// subsampling. It serves both classification and regression depending on
// the Regression flag.
type Forest struct {
	NumTrees        int
	MaxDepth        int
	MinSamplesSplit int
	MaxFeatures     int // 0 = sqrt(d) classification, d/3 regression
	Regression      bool
	Seed            int64
	// TrackOOB records each tree's bootstrap sample so OOBScore can
	// compute the out-of-bag accuracy estimate after Fit. Off by default
	// (it retains per-tree membership bitmaps).
	TrackOOB bool

	Trees   []*Tree
	Classes int

	inBag [][]bool // per-tree bootstrap membership (TrackOOB only)
	oobX  [][]float64
	oobY  []int

	// met is the optional observability sink (SetObs), published
	// atomically so a serving process can re-attach it (a hot reload of
	// the model already serving) while predictions read it. Unexported
	// so encoding/gob never tries to serialise live metric state with a
	// saved model.
	met atomic.Pointer[Metrics]
}

// Metrics is the optional observability sink of a Forest. Attach one
// with SetObs; a nil sink (the default) costs nothing on the prediction
// hot path.
type Metrics struct {
	// TraversalDepth, when non-nil, receives the per-tree traversal
	// depth of every tree consulted by a prediction. Deep traversals on
	// served traffic reveal how far real columns sink into the trees
	// versus the MaxDepth cap that training paid for.
	TraversalDepth *obs.Summary
}

// SetObs attaches (or, with nil, detaches) an observability sink. It is
// safe to call concurrently with predictions; each prediction observes
// into the sink it found when it started.
func (f *Forest) SetObs(m *Metrics) { f.met.Store(m) }

// SplitNodes returns the total number of internal (split) nodes across
// the fitted trees: the training split count the induction committed to.
func (f *Forest) SplitNodes() int {
	total := 0
	for _, t := range f.Trees {
		total += t.NumSplits()
	}
	return total
}

// LeafNodes returns the total number of leaves across the fitted trees.
func (f *Forest) LeafNodes() int {
	total := 0
	for _, t := range f.Trees {
		total += t.NumLeaves()
	}
	return total
}

// MaxTreeDepth returns the deepest fitted tree's depth (root = 0), or 0
// for an unfitted forest.
func (f *Forest) MaxTreeDepth() int {
	max := 0
	for _, t := range f.Trees {
		if d := t.Depth(); d > max {
			max = d
		}
	}
	return max
}

// NewClassifier returns a classification forest with the benchmark's
// default configuration (100 trees, depth 25), the best grid point reported
// by the paper.
func NewClassifier(numTrees, maxDepth int) *Forest {
	return &Forest{NumTrees: numTrees, MaxDepth: maxDepth, MinSamplesSplit: 2, Seed: 1}
}

// NewRegressor returns a regression forest.
func NewRegressor(numTrees, maxDepth int) *Forest {
	return &Forest{NumTrees: numTrees, MaxDepth: maxDepth, MinSamplesSplit: 2,
		Regression: true, Seed: 1}
}

// Fit trains a classification forest on X with labels y in [0,k).
func (f *Forest) Fit(X [][]float64, y []int, k int) error {
	if f.Regression {
		return fmt.Errorf("tree: Fit called on a regression forest")
	}
	if len(X) == 0 {
		return errEmpty
	}
	if len(X) != len(y) {
		return fmt.Errorf("tree: X and y size mismatch: %d vs %d", len(X), len(y))
	}
	f.Classes = k
	return f.fit(X, y, nil)
}

// FitRegression trains a regression forest on X with targets y.
func (f *Forest) FitRegression(X [][]float64, y []float64) error {
	if !f.Regression {
		return fmt.Errorf("tree: FitRegression called on a classification forest")
	}
	if len(X) == 0 {
		return errEmpty
	}
	if len(X) != len(y) {
		return fmt.Errorf("tree: X and y size mismatch: %d vs %d", len(X), len(y))
	}
	return f.fit(X, nil, y)
}

func (f *Forest) fit(X [][]float64, yc []int, yf []float64) error {
	if f.NumTrees <= 0 {
		f.NumTrees = 100
	}
	n := len(X)
	f.Trees = make([]*Tree, f.NumTrees)
	p := Params{
		MaxDepth:        f.MaxDepth,
		MinSamplesSplit: f.MinSamplesSplit,
		MaxFeatures:     f.MaxFeatures,
		Classes:         f.Classes,
		Regression:      f.Regression,
	}
	// Per-tree seeds are derived deterministically so results don't depend
	// on goroutine scheduling.
	seeds := make([]int64, f.NumTrees)
	seedRng := rand.New(rand.NewSource(f.Seed))
	for i := range seeds {
		seeds[i] = seedRng.Int63()
	}
	if f.TrackOOB && !f.Regression {
		f.inBag = make([][]bool, f.NumTrees)
		f.oobX, f.oobY = X, yc
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > f.NumTrees {
		workers = f.NumTrees
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range jobs {
				rng := rand.New(rand.NewSource(seeds[t]))
				idx := make([]int, n)
				var bag []bool
				if f.inBag != nil {
					bag = make([]bool, n)
				}
				for i := range idx {
					idx[i] = rng.Intn(n) // bootstrap sample
					if bag != nil {
						bag[idx[i]] = true
					}
				}
				if f.inBag != nil {
					f.inBag[t] = bag
				}
				f.Trees[t] = growTree(X, yc, yf, idx, p, rng)
			}
		}()
	}
	for t := 0; t < f.NumTrees; t++ {
		jobs <- t
	}
	close(jobs)
	wg.Wait()
	return nil
}

// PredictProba averages leaf class distributions over the trees.
func (f *Forest) PredictProba(x []float64) []float64 {
	return f.PredictProbaInto(make([]float64, f.Classes), x)
}

// PredictProbaInto is PredictProba writing into a caller-provided slice,
// which must have length Classes; it returns out. Serving predicts one
// column at a time, so letting the caller reuse the probability buffer
// keeps the per-request allocation count flat. Callers that cache the
// result (or hand it to a cache) must pass a fresh slice.
func (f *Forest) PredictProbaInto(out, x []float64) []float64 {
	met := f.met.Load()
	observe := met != nil && met.TraversalDepth != nil
	for i := range out {
		out[i] = 0
	}
	for _, t := range f.Trees {
		leaf, depth := t.predictNodeDepth(x)
		if observe {
			met.TraversalDepth.Observe(float64(depth))
		}
		for c, p := range leaf.probs {
			out[c] += p
		}
	}
	for c := range out {
		out[c] /= float64(len(f.Trees))
	}
	return out
}

// PredictOne returns the majority-vote class for x.
func (f *Forest) PredictOne(x []float64) int {
	return argmax(f.PredictProba(x))
}

// Predict classifies every row of X, reusing one probability buffer for
// the whole batch.
func (f *Forest) Predict(X [][]float64) []int {
	out := make([]int, len(X))
	probs := make([]float64, f.Classes)
	for i := range X {
		out[i] = argmax(f.PredictProbaInto(probs, X[i]))
	}
	return out
}

// argmax returns the index of the largest probability.
func argmax(probs []float64) int {
	best := 0
	for c := 1; c < len(probs); c++ {
		if probs[c] > probs[best] {
			best = c
		}
	}
	return best
}

// PredictValueOne returns the forest-mean regression estimate for x.
func (f *Forest) PredictValueOne(x []float64) float64 {
	var sum float64
	for _, t := range f.Trees {
		sum += t.PredictValue(x)
	}
	return sum / float64(len(f.Trees))
}

// PredictValues returns regression estimates for every row of X.
func (f *Forest) PredictValues(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i := range X {
		out[i] = f.PredictValueOne(X[i])
	}
	return out
}

// OOBScore returns the out-of-bag accuracy estimate: each training example
// is classified by majority vote of only the trees whose bootstrap sample
// excluded it. Requires TrackOOB to have been set before Fit; returns
// (0, false) otherwise or when no example was ever out of bag.
func (f *Forest) OOBScore() (float64, bool) {
	if f.inBag == nil || f.Regression || len(f.oobX) == 0 {
		return 0, false
	}
	hits, counted := 0, 0
	votes := make([]float64, f.Classes)
	for i := range f.oobX {
		for c := range votes {
			votes[c] = 0
		}
		voted := false
		for t, tree := range f.Trees {
			if f.inBag[t][i] {
				continue
			}
			for c, p := range tree.PredictProba(f.oobX[i]) {
				votes[c] += p
			}
			voted = true
		}
		if !voted {
			continue
		}
		best := 0
		for c := 1; c < len(votes); c++ {
			if votes[c] > votes[best] {
				best = c
			}
		}
		counted++
		if best == f.oobY[i] {
			hits++
		}
	}
	if counted == 0 {
		return 0, false
	}
	return float64(hits) / float64(counted), true
}

// FeatureImportances returns the normalised mean impurity decrease per
// feature across the forest's trees (summing to 1 when any split occurred).
// It mirrors scikit-learn's default feature_importances_ and backs the
// paper's observation that descriptive stats and attribute names carry
// most of the signal.
func (f *Forest) FeatureImportances() []float64 {
	if len(f.Trees) == 0 {
		return nil
	}
	var out []float64
	for _, t := range f.Trees {
		if out == nil {
			out = make([]float64, len(t.gains))
		}
		for i, g := range t.gains {
			out[i] += g
		}
	}
	var total float64
	for _, v := range out {
		total += v
	}
	if total > 0 {
		for i := range out {
			out[i] /= total
		}
	}
	return out
}
