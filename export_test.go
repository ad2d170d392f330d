package kcore

import "kcore/internal/order"

// OrderKindOf reports the order structure that backs e's maintained levels.
// e must be an order-based engine.
func OrderKindOf(e *Engine) order.Kind { return e.m.(orderImpl).m.OrderKind() }
