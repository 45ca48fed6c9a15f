package client

// SetIndexEntry records one subtree root in the client's cached index, as a
// refresh that saw it would have. Tests use it to put the client's index
// ahead of a server's.
func (c *Client) SetIndexEntry(root, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.index.Set(root, addr)
}
