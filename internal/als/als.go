// Package als implements the standard batch CP-ALS algorithm (Eq. (4) of
// the paper) for sparse tensors. It is the offline reference every online
// method is measured against (the denominator of relative fitness), the
// initializer of every online method (Section VI-A: "we initialized factor
// matrices using ALS on the initial tensor window"), and — one sweep at a
// time — the inner loop of SNS_MAT.
package als

import (
	"math"
	"math/rand"

	"slicenstitch/internal/cpd"
	"slicenstitch/internal/mat"
	"slicenstitch/internal/tensor"
)

// Options configures a run of ALS.
type Options struct {
	// Rank is the CP rank R (required, > 0).
	Rank int
	// MaxIters bounds the number of full sweeps (default 20).
	MaxIters int
	// Tol stops early when the fitness improvement of a sweep drops below
	// it (default 1e-5; set negative to disable early stopping).
	Tol float64
	// Seed drives the random initialization (ignored with Init).
	Seed int64
	// Init optionally warm-starts from an existing model (cloned).
	Init *cpd.Model
}

func (o Options) withDefaults() Options {
	if o.MaxIters == 0 {
		o.MaxIters = 20
	}
	if o.Tol == 0 {
		o.Tol = 1e-5
	}
	return o
}

// Workspace holds the MTTKRP outputs (one per mode — row counts differ)
// and the Hadamard-of-Grams buffer an ALS sweep reuses, so repeated
// sweeps over the same shape (Run's iterations, SNS_MAT's per-event
// sweep, PeriodicALS's refits) stop re-allocating their two largest
// intermediates every mode.
type Workspace struct {
	u []*mat.Dense
	h *mat.Dense
}

// NewWorkspace sizes a Workspace for tensors of the given shape and rank.
func NewWorkspace(shape []int, rank int) *Workspace {
	u := make([]*mat.Dense, len(shape))
	for m, n := range shape {
		u[m] = mat.New(n, rank)
	}
	return &Workspace{u: u, h: mat.New(rank, rank)}
}

// Run factorizes x with ALS and returns a model with column-normalized
// factors and weights λ.
func Run(x *tensor.Sparse, opt Options) *cpd.Model {
	opt = opt.withDefaults()
	var model *cpd.Model
	if opt.Init != nil {
		model = opt.Init.Clone()
	} else {
		model = cpd.NewRandomModel(x.Shape(), opt.Rank, rand.New(rand.NewSource(opt.Seed)))
	}
	grams := model.Grams()
	ws := NewWorkspace(x.Shape(), model.Rank())
	prevFit := math.Inf(-1)
	for it := 0; it < opt.MaxIters; it++ {
		SweepWS(x, model, grams, ws)
		if opt.Tol >= 0 {
			fit := cpd.Fitness(x, model)
			if fit-prevFit < opt.Tol {
				break
			}
			prevFit = fit
		}
	}
	return model
}

// Sweep performs one full ALS sweep over all modes, updating the model's
// factors (kept column-normalized), its λ, and the provided Gram matrices
// in place. This is exactly the per-event procedure of SNS_MAT
// (Algorithm 2). It allocates a transient Workspace; repeated sweepers
// hold one and call SweepWS.
func Sweep(x *tensor.Sparse, model *cpd.Model, grams []*mat.Dense) {
	SweepWS(x, model, grams, NewWorkspace(x.Shape(), model.Rank()))
}

// SweepWS is Sweep with a caller-held Workspace.
func SweepWS(x *tensor.Sparse, model *cpd.Model, grams []*mat.Dense, ws *Workspace) {
	for m := range model.Factors {
		UpdateModeWS(x, model, grams, m, ws)
	}
}

// UpdateMode solves Eq. (4) for one mode:
// A⁽ᵐ⁾ ← X_(m) (⊙_{n≠m} A⁽ⁿ⁾) (∗_{n≠m} A⁽ⁿ⁾ᵀA⁽ⁿ⁾)†, then column-normalizes
// A⁽ᵐ⁾ into the model (footnote 1 of the paper) and refreshes grams[m].
// It allocates a transient Workspace; repeated callers use UpdateModeWS.
func UpdateMode(x *tensor.Sparse, model *cpd.Model, grams []*mat.Dense, m int) {
	UpdateModeWS(x, model, grams, m, NewWorkspace(x.Shape(), model.Rank()))
}

// UpdateModeWS is UpdateMode with a caller-held Workspace: the MTTKRP and
// the Hadamard product of Grams land in the workspace buffers instead of
// fresh matrices.
func UpdateModeWS(x *tensor.Sparse, model *cpd.Model, grams []*mat.Dense, m int, ws *Workspace) {
	u := cpd.MTTKRPInto(ws.u[m], x, model.Factors, m)
	h := cpd.GramsExceptInto(ws.h, grams, m)
	hp := mat.PseudoInverseSym(h)
	a := mat.Mul(u, hp)
	Normalize(a, model.Lambda)
	model.Factors[m] = a
	grams[m] = mat.Gram(a)
}

// Normalize scales each column of a to unit ℓ₂ norm, storing the norms in
// lambda. Zero columns keep λ_r = 0 and are left untouched (a rank
// deficiency, not an error).
func Normalize(a *mat.Dense, lambda []float64) {
	r := a.Cols()
	if len(lambda) != r {
		panic("als: lambda length mismatch")
	}
	for k := 0; k < r; k++ {
		s := 0.0
		for i := 0; i < a.Rows(); i++ {
			v := a.Row(i)[k]
			s += v * v
		}
		n := math.Sqrt(s)
		lambda[k] = n
		if n > 0 {
			inv := 1 / n
			for i := 0; i < a.Rows(); i++ {
				a.Row(i)[k] *= inv
			}
		}
	}
}
