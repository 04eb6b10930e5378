package main

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"
)

// The machine this runs on is shared: a neighbour on the sibling hardware
// thread slows the program's high-IPC loops by up to 2× for seconds to
// hours, and no statistic over a run's own timings can tell a slow program
// from a busy neighbour when the neighbour is busy for the whole run. So the
// harness measures the neighbour. Between operations a client runs a fixed
// reference kernel of the harness's own (~100 µs of SWAR-style mask, shift
// and add over a 4 KiB buffer, four independent chains — the instruction mix
// the program's kernels have; the buffer is small so that refilling the
// cache after an operation costs the probe nothing) for 1/50 of the time
// spent on operations, and only while no operation of any client is in
// flight, so that the program's own load on the other cores is never taken
// for the neighbour's. The kernel's fastest time in the whole process is its
// time on a quiet machine: the floor is sharp (in a tight loop on this box a
// tenth of all probes land within 0.5 % of the fastest), so it is the mode
// of an undisturbed probe and not a lucky one. The mean of the probe times
// within a round, over that floor, is the round's interference factor, and
// the round's timings are divided by it. The correction never touches a
// count, a size or a correctness tally, and every corrected number is
// printed with the measured one beside it.

var (
	paceBuf   [512]uint64
	paceFloor atomic.Int64 // fastest probe so far, ns
)

func init() {
	for i := range paceBuf {
		paceBuf[i] = uint64(i+1) * 0x9e3779b97f4a7c15
	}
	paceFloor.Store(math.MaxInt64)
}

// paceDuty is the share of a client's time spent probing.
const paceDuty = 50

// paceKernel is the reference work. It calls nothing in the program, so no
// change to the program can move it.
//
//go:noinline
func paceKernel() uint64 {
	var a0, a1, a2, a3 uint64
	const m = 0x00ff00ff00ff00ff
	b := &paceBuf
	for pass := 0; pass < 384; pass++ {
		for i := 0; i < len(b); i += 4 {
			x0, x1, x2, x3 := b[i], b[i+1], b[i+2], b[i+3]
			a0 += (x0 & m) + ((x0 >> 8) & m)
			a1 += (x1 & m) + ((x1 >> 8) & m)
			a2 += (x2 & m) + ((x2 >> 8) & m)
			a3 += (x3 & m) + ((x3 >> 8) & m)
		}
	}
	return a0 + a1 + a2 + a3
}

// A pace accumulates one client's probes.
type pace struct {
	debt  time.Duration // probing owed: 1/paceDuty of the time spent on ops
	total time.Duration
	times []int32 // each probe's ns
	sink  uint64  // keeps the kernel's result alive
}

// paceClip bounds one probe's weight in a factor, in floors. Sharing a core
// cannot slow the kernel much beyond 2×; a probe that took longer was
// descheduled, which costs an operation only its share of the stall, not a
// multiple of itself.
const paceClip = 3

// probe runs the reference kernel once.
func (p *pace) probe() {
	t0 := time.Now()
	p.sink += paceKernel()
	d := time.Since(t0)
	p.total += d
	p.times = append(p.times, int32(min(d, math.MaxInt32)))
	for {
		f := paceFloor.Load()
		if int64(d) >= f || paceFloor.CompareAndSwap(f, int64(d)) {
			break
		}
	}
}

// pay probes until owed of probing is done and returns what is left of the
// debt: zero or less, the last probe's overshoot being credit.
func (p *pace) pay(owed time.Duration) time.Duration {
	for owed > 0 {
		before := p.total
		p.probe()
		owed -= p.total - before
	}
	return owed
}

// after is called by a lone caller with each finished op's duration and
// pays off the debt at once.
func (p *pace) after(op time.Duration) { p.debt = p.pay(p.debt + op/paceDuty) }

// probeDuring runs fn with a goroutine probing beside it for as long as it
// takes: the factor for something that cannot be interleaved with probes (a
// set-up is one long call). The prober yields after every probe, so it only
// uses a processor nothing else wants — on one core it gets a probe in per
// scheduler time slice, on two it has the core a single-threaded set-up
// leaves idle, and keeps it from halting, which would make the next probe
// slow for a reason that is not the neighbour's.
func probeDuring(fn func() error) (pace, error) {
	var p pace
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			p.probe()
			runtime.Gosched()
		}
	}()
	err := fn()
	stop.Store(true)
	<-done
	return p, err
}

func (p *pace) add(o pace) {
	p.total += o.total
	p.times = append(p.times, o.times...)
}

// factor is the mean (clipped) probe time over the floor: how much slower
// than on a quiet machine the reference kernel ran. Call it when the run's
// probing is over, so that every factor is taken against the same floor.
func (p *pace) factor() float64 {
	if len(p.times) == 0 {
		return 1
	}
	floor := paceFloor.Load()
	var sum int64
	for _, t := range p.times {
		sum += min(int64(t), paceClip*floor)
	}
	return float64(sum) / float64(len(p.times)) / float64(floor)
}
