package wire

// PingRequest gives TypePing its schema.
type PingRequest struct {
	Seq int
}

// StatusResponse gives TypeStatus its schema.
type StatusResponse struct {
	Details []string
}

// DropRequest exists so TypeDrop has a schema; its handler is missing.
type DropRequest struct {
	Path string
}

// RenewResponse satisfies TypeRenew's schema on the Response side alone.
type RenewResponse struct {
	Match bool
}
