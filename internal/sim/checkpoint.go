package sim

import (
	"fmt"
	"sort"

	"github.com/twig-sched/twig/internal/checkpoint"
)

// EncodeAssignment serialises an assignment (exported because the Twig
// manager's checkpoint carries its previous decision and twigd carries
// the loop's last valid assignment).
func EncodeAssignment(e *checkpoint.Encoder, asg Assignment) {
	e.Bool(asg.PerService != nil)
	e.Int(len(asg.PerService))
	for _, a := range asg.PerService {
		e.Ints(a.Cores)
		e.F64(a.FreqGHz)
		e.Int(a.CacheWays)
	}
	e.F64(asg.IdleFreqGHz)
}

// allocationBytes is the smallest encoding of one Allocation: an empty
// core list, the frequency and the cache ways.
const allocationBytes = 4 + 8 + 8

// DecodeAssignment reads an assignment written by EncodeAssignment.
func DecodeAssignment(d *checkpoint.Decoder) (Assignment, error) {
	have := d.Bool()
	n := d.Count(allocationBytes)
	var asg Assignment
	if have {
		asg.PerService = make([]Allocation, 0, n)
	}
	for range n {
		asg.PerService = append(asg.PerService, Allocation{
			Cores:     d.Ints(),
			FreqGHz:   d.F64(),
			CacheWays: d.Int(),
		})
	}
	asg.IdleFreqGHz = d.F64()
	return asg, d.Err()
}

func encodeServiceStats(e *checkpoint.Encoder, sv ServiceStats) {
	e.Int(sv.Arrivals)
	e.Int(sv.Completed)
	e.F64(sv.P99Ms)
	e.F64(sv.P95Ms)
	e.F64(sv.MeanMs)
	e.F64(sv.MaxMs)
	e.Int(sv.QueueLen)
	e.F64(sv.WorkDone)
	e.F64(sv.BusySeconds)
	e.F64(sv.CapacityGHz)
	e.Int(sv.Dropped)
	e.F64(sv.InflationApplied)
	for _, v := range sv.PMCs {
		e.F64(v)
	}
	for _, v := range sv.NormPMCs {
		e.F64(v)
	}
	e.F64(sv.QoSTargetMs)
	e.Int(sv.NumCores)
	e.F64(sv.FreqGHz)
	e.F64(sv.OfferedRPS)
}

func decodeServiceStats(d *checkpoint.Decoder) ServiceStats {
	var sv ServiceStats
	sv.Arrivals = d.Int()
	sv.Completed = d.Int()
	sv.P99Ms = d.F64()
	sv.P95Ms = d.F64()
	sv.MeanMs = d.F64()
	sv.MaxMs = d.F64()
	sv.QueueLen = d.Int()
	sv.WorkDone = d.F64()
	sv.BusySeconds = d.F64()
	sv.CapacityGHz = d.F64()
	sv.Dropped = d.Int()
	sv.InflationApplied = d.F64()
	for i := range sv.PMCs {
		sv.PMCs[i] = d.F64()
	}
	for i := range sv.NormPMCs {
		sv.NormPMCs[i] = d.F64()
	}
	sv.QoSTargetMs = d.F64()
	sv.NumCores = d.Int()
	sv.FreqGHz = d.F64()
	sv.OfferedRPS = d.F64()
	return sv
}

// CheckpointName implements checkpoint.Checkpointable.
func (s *Server) CheckpointName() string { return "sim-server" }

// EncodeState writes the complete simulated-world state: clock and
// energy accumulators, platform core states, every service instance's
// queue/window/RNG, measurement-noise RNG positions, the fault
// injector's schedule position, and the crash/warm-up/stale-latency
// bookkeeping. Restoring all of it is what makes a resumed run's CSV
// byte-identical — the observable metrics (power, p99) depend on this
// state, not just on the learner's.
func (s *Server) EncodeState(e *checkpoint.Encoder) {
	e.Int(len(s.insts))
	e.Int(s.clock)
	e.F64(s.energyJ)
	e.F64(s.batchWorkJ)
	s.plat.EncodeState(e)
	for _, inst := range s.insts {
		inst.EncodeState(e)
	}
	s.powSrc.EncodeState(e)
	s.synthSrc.EncodeState(e)

	e.Bool(s.inj != nil)
	if s.inj != nil {
		s.inj.EncodeState(e)
	}
	downed := make([]int, 0, len(s.downed))
	for c := range s.downed {
		downed = append(downed, c)
	}
	sort.Ints(downed)
	e.Ints(downed)
	e.Bool(s.haveApplied)
	EncodeAssignment(e, s.appliedAsg)
	e.Bools(s.crashPrev)
	e.Ints(s.warmupLeft)
	for _, sv := range s.lastLat {
		encodeServiceStats(e, sv)
	}
	e.Bools(s.haveLat)
}

// DecodeState restores state written by EncodeState into a server
// constructed with the same configuration and service specs.
func (s *Server) DecodeState(d *checkpoint.Decoder) error {
	k := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if k != len(s.insts) {
		return fmt.Errorf("sim: checkpoint covers %d services, server hosts %d", k, len(s.insts))
	}
	s.clock = d.Int()
	s.energyJ = d.F64()
	s.batchWorkJ = d.F64()
	if err := d.Err(); err != nil {
		return err
	}
	if s.clock < 0 {
		return fmt.Errorf("sim: negative clock %d in checkpoint", s.clock)
	}
	if err := s.plat.DecodeState(d); err != nil {
		return err
	}
	for i, inst := range s.insts {
		if err := inst.DecodeState(d); err != nil {
			return fmt.Errorf("sim: service %d: %w", i, err)
		}
	}
	if err := s.powSrc.DecodeState(d); err != nil {
		return err
	}
	if err := s.synthSrc.DecodeState(d); err != nil {
		return err
	}

	haveInj := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if haveInj != (s.inj != nil) {
		return fmt.Errorf("sim: checkpoint fault injector presence (%v) does not match server configuration (%v)",
			haveInj, s.inj != nil)
	}
	if haveInj {
		if err := s.inj.DecodeState(d); err != nil {
			return err
		}
	}
	downed := d.Ints()
	if err := d.Err(); err != nil {
		return err
	}
	n := s.plat.NumCores()
	s.downed = make(map[int]bool, len(downed))
	for _, c := range downed {
		if c < 0 || c >= n {
			return fmt.Errorf("sim: downed core %d out of range [0,%d)", c, n)
		}
		s.downed[c] = true
	}
	s.haveApplied = d.Bool()
	asg, err := DecodeAssignment(d)
	if err != nil {
		return err
	}
	s.appliedAsg = asg
	s.crashPrev = d.Bools()
	s.warmupLeft = d.Ints()
	lastLat := make([]ServiceStats, k)
	for i := range lastLat {
		lastLat[i] = decodeServiceStats(d)
	}
	s.lastLat = lastLat
	s.haveLat = d.Bools()
	if err := d.Err(); err != nil {
		return err
	}
	if len(s.crashPrev) != k || len(s.warmupLeft) != k || len(s.haveLat) != k {
		return fmt.Errorf("sim: per-service state lengths (%d, %d, %d) do not match %d services",
			len(s.crashPrev), len(s.warmupLeft), len(s.haveLat), k)
	}
	return nil
}
