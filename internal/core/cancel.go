package core

import (
	"context"
	"errors"

	"github.com/pbitree/pbitree/internal/buffer"
)

// ErrCanceled is returned (wrapped) by every join algorithm when the
// execution's context.Context is canceled mid-join. errors.Is matches both
// ErrCanceled and context.Canceled on the returned error.
var ErrCanceled = errors.New("core: join canceled")

// ErrDeadlineExceeded is the deadline analogue of ErrCanceled; errors.Is
// matches both ErrDeadlineExceeded and context.DeadlineExceeded.
var ErrDeadlineExceeded = errors.New("core: join deadline exceeded")

// cancelErr couples one of the package sentinels with the underlying
// context error so callers can test either vocabulary with errors.Is.
type cancelErr struct {
	sentinel error
	cause    error
}

func (e *cancelErr) Error() string   { return e.sentinel.Error() }
func (e *cancelErr) Unwrap() []error { return []error{e.sentinel, e.cause} }

// Canceled polls the execution's context without blocking. It returns nil
// when no context is attached or the context is still live, and a
// sentinel-wrapped error once the context is canceled or past its
// deadline. The buffer pool calls this before every page request while
// the execution is armed (see ArmPool), and the pair-counting sink calls
// it periodically to cover CPU-bound emission loops.
func (c *Context) Canceled() error {
	if c.Ctx == nil {
		return nil
	}
	select {
	case <-c.Ctx.Done():
		cause := c.Ctx.Err()
		sentinel := ErrCanceled
		if errors.Is(cause, context.DeadlineExceeded) {
			sentinel = ErrDeadlineExceeded
		}
		return &cancelErr{sentinel: sentinel, cause: cause}
	default:
		return nil
	}
}

// ArmPool installs the context as the buffer pool's interrupt, so its
// cancellation check runs before every page access, and returns the
// interrupt it replaced for DisarmPool to reinstate. With no context
// attached it is a no-op. Arming nests safely: inner executions save and
// restore the outer interrupt. Neither call allocates.
func (c *Context) ArmPool() (prev buffer.Interrupter) {
	if c.Ctx == nil {
		return nil
	}
	return c.Pool.SetInterrupt(c)
}

// DisarmPool reinstates the interrupt ArmPool replaced.
func (c *Context) DisarmPool(prev buffer.Interrupter) {
	if c.Ctx != nil {
		c.Pool.SetInterrupt(prev)
	}
}
