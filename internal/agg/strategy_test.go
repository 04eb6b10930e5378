package agg

import "testing"

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
	if got := Choose(p); got == StrategyInRegister {
		t.Fatalf("Choose picked in-register at an unsupported width")
	}
}

// The scalar loop runs one pass per word size present, so mixed-width
// inputs are priced with their own coefficient.
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
}
