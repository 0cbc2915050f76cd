package cluster

import (
	"fmt"
	"strings"

	"github.com/twig-sched/twig/internal/mat"
)

// NodeView is the status representation of one fleet node.
type NodeView struct {
	ID       int    `json:"id"`
	State    string `json:"state"`
	Lease    bool   `json:"lease_valid"`
	LastSeen int    `json:"last_seen"`
	Rejoins  int    `json:"rejoins"`
	Replicas []int  `json:"replicas"`
}

// ReplicaView is the status representation of one replica.
type ReplicaView struct {
	ID            int     `json:"id"`
	Service       string  `json:"service"`
	Class         string  `json:"class"`
	Priority      int     `json:"priority"`
	State         string  `json:"state"`
	Node          int     `json:"node"`
	Shed          bool    `json:"shed"`
	Retries       int     `json:"retries"`
	Reason        string  `json:"reason,omitempty"`
	Intervals     int     `json:"intervals"`
	Violations    int     `json:"violations"`
	DarkIntervals int     `json:"dark_intervals"`
	Migrations    int     `json:"migrations"`
	WarmRestores  int     `json:"warm_restores"`
	QoS           float64 `json:"qos_guarantee"`
}

// Summary is the fleet-wide roll-up the chaos experiment and the twigd
// status page report.
type Summary struct {
	Time     int           `json:"time"`
	EnergyJ  float64       `json:"energy_j"`
	Nodes    []NodeView    `json:"nodes"`
	Replicas []ReplicaView `json:"replicas"`

	// Kernel and CPUFeatures record the GEMM dispatch provenance of the
	// process hosting the fleet.
	Kernel      string `json:"kernel"`
	CPUFeatures string `json:"cpu_features"`

	LeaseExpiries  int `json:"lease_expiries"`
	RestartsSeen   int `json:"restarts_detected"`
	Migrations     int `json:"migrations"`
	WarmRestores   int `json:"warm_restores"`
	ColdRestores   int `json:"cold_restores"`
	DeadLetters    int `json:"dead_letters"`
	PlacementFails int `json:"placement_failures"`
	ShedEpisodes   int `json:"shed_episodes"`
	ShedIntervals  int `json:"shed_intervals"`
	DecidePanics   int `json:"decide_panics"`
	StepErrors     int `json:"step_errors"`
	EventsInjected int `json:"node_events_injected"`
}

// Summary builds the current fleet roll-up.
func (c *Coordinator) Summary() Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Summary{
		Time:           c.clock,
		EnergyJ:        c.energyJ,
		Kernel:         mat.KernelName(),
		CPUFeatures:    mat.CPUFeatures(),
		LeaseExpiries:  c.ctr.LeaseExpiries,
		RestartsSeen:   c.ctr.RestartsSeen,
		Migrations:     c.ctr.Migrations,
		WarmRestores:   c.ctr.WarmRestores,
		ColdRestores:   c.ctr.ColdRestores,
		DeadLetters:    c.ctr.DeadLetters,
		PlacementFails: c.ctr.PlacementFails,
		ShedEpisodes:   c.ctr.ShedEpisodes,
		ShedIntervals:  c.ctr.ShedLC + c.ctr.ShedBatch,
		DecidePanics:   c.ctr.DecidePanics,
		StepErrors:     c.ctr.StepErrors,
		EventsInjected: c.ctr.EventsInjected,
	}
	for _, n := range c.nodes {
		s.Nodes = append(s.Nodes, NodeView{
			ID:       n.id,
			State:    machineStateNames[n.machineState()],
			Lease:    n.coordLive,
			LastSeen: n.lastSeen,
			Rejoins:  n.rejoins,
			Replicas: append([]int(nil), n.replicas...),
		})
	}
	for _, r := range c.replicas {
		v := ReplicaView{
			ID:            r.ID,
			Service:       r.Spec.Service,
			Class:         r.Spec.Class.String(),
			Priority:      r.Spec.Priority,
			State:         r.State.String(),
			Node:          r.Node,
			Shed:          r.Shed,
			Retries:       r.Retries,
			Reason:        r.Reason,
			Intervals:     r.Intervals,
			Violations:    r.Violations,
			DarkIntervals: r.DarkIntervals,
			Migrations:    r.Migrations,
			WarmRestores:  r.WarmRestores,
		}
		if ticks := r.Ticks(); ticks > 0 {
			v.QoS = 1 - float64(r.Violations)/float64(ticks)
		} else {
			v.QoS = 1
		}
		s.Replicas = append(s.Replicas, v)
	}
	return s
}

// StatusText renders the fleet for the twigd status page: one node row
// per fleet member, then the replica table with placement state,
// carried accounting and failure reasons.
func (s Summary) StatusText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet t=%d  energy %.0f J  leases expired %d  migrations %d (%d warm)  dead-letters %d\n",
		s.Time, s.EnergyJ, s.LeaseExpiries, s.Migrations, s.WarmRestores, s.DeadLetters)
	for _, n := range s.Nodes {
		lease := "lease ok"
		if !n.Lease {
			lease = "lease EXPIRED"
		}
		fmt.Fprintf(&b, "  node %d  %-11s %-13s rejoins %d  replicas %v\n",
			n.ID, n.State, lease, n.Rejoins, n.Replicas)
	}
	for _, r := range s.Replicas {
		shed := ""
		if r.Shed {
			shed = " SHED"
		}
		fmt.Fprintf(&b, "  replica %d  %-10s %-5s prio %d  %-11s node %2d%s  qos %5.1f%%  up %d dark %d mig %d(warm %d)",
			r.ID, r.Service, r.Class, r.Priority, r.State, r.Node, shed,
			r.QoS*100, r.Intervals, r.DarkIntervals, r.Migrations, r.WarmRestores)
		if r.Reason != "" {
			fmt.Fprintf(&b, "  [%s]", r.Reason)
		}
		b.WriteString("\n")
	}
	return b.String()
}
