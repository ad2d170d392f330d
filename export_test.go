package kcore

import "kcore/internal/order"

// OrderKindOf reports the order structure that backs e's maintained levels.
func OrderKindOf(e *Engine) order.Kind { return e.m.OrderKind() }
