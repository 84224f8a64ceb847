package core

// This file holds the degradation ladder's error taxonomy: the recoverable
// state faults — recovered worker panics and the checked corruption
// sentinels of the retained amortised state — that Round quarantines and
// re-runs through the cold path instead of surfacing to the Solve caller.
// Everything else (a caller-installed solver's contract error, an
// exhausted fallback) still propagates; the ladder narrows the blast
// radius of state faults, it does not swallow real errors.

import (
	"errors"
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/layered"
)

// PanicError wraps a panic recovered from the class sweep (or, with
// Class = -1, from the amortised round setup). The worker pool recovers
// every panic — a worker goroutine must never kill the process — and hands
// it to the fallback pass as one of these; if the cold re-run fails too,
// the PanicError is what the Solve caller sees.
type PanicError struct {
	// Class is the class index whose sweep panicked, or -1 for the
	// round-scoped amortised setup.
	Class int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	scope := fmt.Sprintf("class %d sweep", e.Class)
	if e.Class < 0 {
		scope = "amortised round setup"
	}
	return fmt.Sprintf("core: recovered panic in %s: %v", scope, e.Value)
}

// stateFaultSentinels are the checked corruption errors of the retained
// amortised state. None of them should ever escape classAugmentations —
// every producing site falls back inline (and the audit tests pin that) —
// but under the ladder's contract an escaped sentinel is still a
// recoverable state fault, handled by quarantine + cold re-run rather than
// surfaced to the Solve caller.
var stateFaultSentinels = []error{
	layered.ErrDeltaNoBase,
	layered.ErrDeltaScratch,
	layered.ErrDeltaStale,
	layered.ErrDeltaMismatch,
	bipartite.ErrRepairNoBase,
	bipartite.ErrRepairStale,
	bipartite.ErrRepairInfo,
}

// recoverableFault reports whether err is a state fault the ladder may
// absorb: a recovered panic or one of the corruption sentinels.
func recoverableFault(err error) bool {
	var pe *PanicError
	if errors.As(err, &pe) {
		return true
	}
	for _, s := range stateFaultSentinels {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}
