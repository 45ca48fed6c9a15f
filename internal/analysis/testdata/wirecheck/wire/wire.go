package wire

const (
	TypePing   = "ping"   // handled, schema'd: clean
	TypeStatus = "status" // handled, schema'd: clean
	TypeDrop   = "drop"   // want: not dispatched by any handler
	TypeGossip = "gossip" // want: no GossipRequest/GossipResponse struct
	TypeRenew  = "renew"  // handled, schema'd by a Response-only pair: clean

	// Version is not an op constant; the Type prefix check must not match it.
	Version = "v1"
)
