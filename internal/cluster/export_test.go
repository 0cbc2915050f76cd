package cluster

// The warm-snapshot tests and benchmarks need nodes running real Twig
// managers, which internal/experiments builds — and it imports this
// package, so they live in package cluster_test and reach the
// unexported snapshot path through these.

// TakeSnapshot cuts node i's warm snapshot and returns the node's own
// buffer (valid until the node's next snapshot).
func (c *Coordinator) TakeSnapshot(i int) []byte {
	c.takeSnapshot(c.nodes[i])
	return c.nodes[i].snapshot
}

// NodeReplicas returns the replica IDs node i hosts.
func (c *Coordinator) NodeReplicas(i int) []int { return c.nodes[i].replicas }

// RestoreSnapshot rebuilds the snapshot's world group onto empty node i.
func (c *Coordinator) RestoreSnapshot(i int, snapshot []byte, ids []int) error {
	return c.restoreSnapshot(c.nodes[i], snapshot, ids)
}

// DropWorld discards node i's world, as a crash does.
func (c *Coordinator) DropWorld(i int) {
	c.nodes[i].replicas = nil
	c.nodes[i].dropWorld()
}
