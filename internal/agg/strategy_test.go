package agg

import "testing"

// The winner regions of the paper's Figures 8–10 are not fixed: they are
// wherever the cost coefficients put them. These tests perturb a static
// profile the way a different machine would (a slower sort, a faster
// in-register unit, a cheaper scalar loop) and assert the chooser's
// borders move exactly the way the model predicts — the property the
// calibrated profile relies on to track real hardware.

func TestChooseCrossoverPerturbation(t *testing.T) {
	base := StaticCost()

	t.Run("many-sum region cascades as kernels slow down", func(t *testing.T) {
		// At 6 one-byte sums over 64 groups the static profile prices multi
		// at 1.3+0.7·6=5.5, scalar at
		// 1.7·6+1.1=11.3 with its COUNT pass, sort at 7+13·6=85 — multi wins
		// the region. On a machine whose multi unit is 20× slower the scalar
		// loop takes it; if its scalar loop is also 10× slower, sort finally
		// earns the region the paper's Figure 10 gives it.
		p := Params{Groups: 64, Sums: 6, MaxWordSize: 1, WordSizes: []int{1, 1, 1, 1, 1, 1}}
		if got := Choose(p, &base); got != StrategyMultiAggregate {
			t.Fatalf("static: %v, want Multi", got)
		}
		slowMulti := base
		slowMulti.MultiFixed *= 20
		slowMulti.MultiPerSum *= 20 // 110
		if got := Choose(p, &slowMulti); got != StrategyScalar {
			t.Fatalf("20x multi: %v, want Scalar", got)
		}
		alsoSlowScalar := slowMulti
		alsoSlowScalar.ScalarPerSum *= 10 // 103.1
		if got := Choose(p, &alsoSlowScalar); got != StrategySortBased {
			t.Fatalf("10x scalar on top: %v, want Sort", got)
		}
		alsoSlowSort := alsoSlowScalar
		alsoSlowSort.SortFixed *= 3
		alsoSlowSort.SortPerSum *= 3 // 255 — back above scalar's 103
		if got := Choose(p, &alsoSlowSort); got == StrategySortBased {
			t.Fatalf("3x sort on top: still Sort")
		}
	})

	t.Run("faster in-register grows its group range", func(t *testing.T) {
		// Fig 8's in-register region ends where per-group cost overtakes the
		// flat alternatives. Statically, 1 one-byte sum over G groups costs
		// 0.6·G in-register vs 1.7 scalar (the COUNT pass is the same on
		// both sides) → in-register wins only to G=2.
		p := Params{Groups: 4, Sums: 1, MaxWordSize: 1, WordSizes: []int{1}}
		if got := Choose(p, &base); got == StrategyInRegister {
			t.Fatalf("static 4g: in-register should already have lost")
		}
		fast := base
		fast.InRegPerGroup1 /= 3 // 0.2·4 = 0.8 < 1.7
		if got := Choose(p, &fast); got != StrategyInRegister {
			t.Fatalf("3x faster in-register at 4g: %v, want Register", got)
		}
		// The region grows with the speedup but still ends: at G=16 the
		// perturbed cost is 3.2 > 1.7 and the border holds.
		p.Groups = 16
		if got := Choose(p, &fast); got == StrategyInRegister {
			t.Fatalf("3x faster in-register at 16g: region should have ended")
		}
	})

	t.Run("slower scalar hands single-sum queries to in-register", func(t *testing.T) {
		// One byte sum over 4 groups: scalar 1.7+1.1 = 2.8, in-register
		// 0.6·4+1.1 = 3.5. Multi-aggregate would be priced at 1.3+0.7 = 2.0,
		// but a single sum has nothing to share the walk with and never plans
		// there, whatever the profile says.
		p := Params{Groups: 4, Sums: 1, MaxWordSize: 1, WordSizes: []int{1}}
		if got := Choose(p, &base); got != StrategyScalar {
			t.Fatalf("static at 4g: %v, want Scalar", got)
		}
		slowScalar := base
		slowScalar.ScalarPerSum *= 3 // 6.2 vs in-register 3.5
		if got := Choose(p, &slowScalar); got != StrategyInRegister {
			t.Fatalf("3x scalar at 4g: %v, want Register", got)
		}
	})

	t.Run("width scaling moves the in-register border left", func(t *testing.T) {
		// Same group count, wider values: the per-group coefficient triples
		// (1B → 4B statically 0.6 → 1.98), so a G that wins at 1 byte loses
		// at 4 — the leftward shift of Fig 9 vs Fig 8.
		p1 := Params{Groups: 2, Sums: 1, MaxWordSize: 1, WordSizes: []int{1}}
		if got := Choose(p1, &base); got != StrategyInRegister {
			t.Fatalf("2g/1B: %v, want Register", got)
		}
		p4 := Params{Groups: 2, Sums: 1, MaxWordSize: 4, WordSizes: []int{4}}
		if EstimateCost(StrategyInRegister, p4, &base) <= EstimateCost(StrategyInRegister, p1, &base) {
			t.Fatalf("4B in-register not costed above 1B")
		}
	})
}

func TestEstimateCostRejectsUnsupportedWidth(t *testing.T) {
	base := StaticCost()
	if _, ok := base.InRegPerGroup(8); ok {
		t.Fatalf("8-byte in-register coefficient should not exist")
	}
	if _, ok := base.InRegPerGroup(3); ok {
		t.Fatalf("3-byte in-register coefficient should not exist")
	}
	p := Params{Groups: 2, Sums: 1, MaxWordSize: 8, WordSizes: []int{8}}
	c := EstimateCost(StrategyInRegister, p, &base)
	for _, s := range []Strategy{StrategyScalar, StrategySortBased, StrategyMultiAggregate} {
		if EstimateCost(s, p, &base) >= c {
			t.Fatalf("unsupported in-register width must lose to %v", s)
		}
	}
	if got := Choose(p, &base); got == StrategyInRegister {
		t.Fatalf("Choose picked in-register at an unsupported width")
	}
}

// The scalar loop runs one pass per word size present, so mixed-width
// inputs are priced with their own coefficient — and a profile fitted
// before that probe existed (zero) falls back to the uniform one.
func TestEstimateCostScalarMixedWidths(t *testing.T) {
	cp := StaticCost()
	cp.ScalarPerSum, cp.ScalarMixedPerSum, cp.CountScalar = 1.5, 2.5, 0
	uniform := Params{Groups: 6, Sums: 3, MaxWordSize: 4, WordSizes: []int{4, 4, 4}}
	mixed := Params{Groups: 6, Sums: 3, MaxWordSize: 8, WordSizes: []int{1, 4, 8}}
	if got := EstimateCost(StrategyScalar, uniform, &cp); got != 4.5 {
		t.Errorf("uniform scalar estimate = %v, want 4.5", got)
	}
	if got := EstimateCost(StrategyScalar, mixed, &cp); got != 7.5 {
		t.Errorf("mixed scalar estimate = %v, want 7.5", got)
	}
	cp.ScalarMixedPerSum = 0
	if got := EstimateCost(StrategyScalar, mixed, &cp); got != 4.5 {
		t.Errorf("mixed scalar estimate without the coefficient = %v, want 4.5", got)
	}
}
