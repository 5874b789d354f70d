// Package driver models the paper's runtime software stack (§5.2): "a
// user-space API, a kernel-space driver, and a set of low-level physical
// registers. We implement region parameters as registers in the
// encoder/decoder modules inside the SoC. Upon invoking any setter function
// from the application, the user-space API passes parameters to the
// kernel-space driver. The driver then writes these parameters to the
// appropriate registers in the hardware units over an AXI-lite interface."
//
// The register file is modeled explicitly so the experiments can count
// configuration traffic and enforce hardware capacity limits.
package driver

import (
	"fmt"
	"slices"

	"repro/internal/region"
)

// RegsPerLabel is the number of 32-bit registers one region label occupies:
// x, y, w, h, stride, skip|phase.
const RegsPerLabel = 6

// DefaultMaxRegions is the register-file capacity of the hybrid encoder
// configuration evaluated in the paper (it synthesizes 1600-region support).
const DefaultMaxRegions = 1600

// RegisterFile models the encoder's memory-mapped configuration registers.
// Like real streaming IP, the file is double-banked: driver writes land in
// a shadow bank and take effect atomically at the next frame boundary
// (Commit), so a label list can never be torn mid-frame. Each bank holds
// RegsPerLabel registers per loaded label and grows with the largest list
// loaded, never past maxRegions labels.
type RegisterFile struct {
	maxRegions int

	shadow  []uint32
	regs    []uint32
	pending bool

	axiWrites int64
	commits   int64
}

// NewRegisterFile returns a register file holding up to maxRegions labels.
func NewRegisterFile(maxRegions int) *RegisterFile {
	if maxRegions <= 0 {
		panic("driver: register file capacity must be positive")
	}
	return &RegisterFile{maxRegions: maxRegions}
}

// Capacity returns the maximum label count.
func (rf *RegisterFile) Capacity() int { return rf.maxRegions }

// AXIWrites returns the cumulative number of 32-bit AXI-lite writes.
func (rf *RegisterFile) AXIWrites() int64 { return rf.axiWrites }

// Commits returns the number of frame-boundary bank swaps performed.
func (rf *RegisterFile) Commits() int64 { return rf.commits }

// Pending reports whether shadow writes await a Commit.
func (rf *RegisterFile) Pending() bool { return rf.pending }

// write models one AXI-lite register write into the shadow bank.
func (rf *RegisterFile) write(idx int, v uint32) {
	rf.shadow[idx] = v
	rf.axiWrites++
}

// Load serializes a label list into the shadow bank.
func (rf *RegisterFile) Load(ls region.List) error {
	if len(ls) > rf.maxRegions {
		return fmt.Errorf("driver: %d labels exceed register capacity %d", len(ls), rf.maxRegions)
	}
	rf.shadow = slices.Grow(rf.shadow[:0], len(ls)*RegsPerLabel)[:len(ls)*RegsPerLabel]
	for i, l := range ls {
		base := i * RegsPerLabel
		rf.write(base+0, uint32(l.X))
		rf.write(base+1, uint32(l.Y))
		rf.write(base+2, uint32(l.W))
		rf.write(base+3, uint32(l.H))
		rf.write(base+4, uint32(l.Stride))
		rf.write(base+5, uint32(l.Skip)<<16|uint32(l.Phase))
	}
	rf.axiWrites++ // count register
	rf.pending = true
	return nil
}

// Commit swaps the shadow bank into the active bank at a frame boundary.
// A no-op when no writes are pending.
func (rf *RegisterFile) Commit() {
	if !rf.pending {
		return
	}
	rf.regs = append(rf.regs[:0], rf.shadow...)
	rf.pending = false
	rf.commits++
}

// Read deserializes the *active* register contents back into labels — what
// the encoder hardware actually consumes.
func (rf *RegisterFile) Read() region.List {
	out := make(region.List, len(rf.regs)/RegsPerLabel)
	for i := range out {
		base := i * RegsPerLabel
		out[i] = region.Label{
			X:      int(rf.regs[base+0]),
			Y:      int(rf.regs[base+1]),
			W:      int(rf.regs[base+2]),
			H:      int(rf.regs[base+3]),
			Stride: int(rf.regs[base+4]),
			Skip:   int(rf.regs[base+5] >> 16),
			Phase:  int(rf.regs[base+5] & 0xFFFF),
		}
	}
	return out
}

// LabelSink receives validated, y-sorted label lists — the encoder side of
// the runtime service.
type LabelSink interface {
	SetRegionLabels(ls region.List) error
}

// Runtime is the user-space API endpoint: it validates and pre-sorts label
// lists (the paper has the app runtime sort by y-index so the hardware RoI
// selector stays cheap), pushes them through the driver's register file,
// and forwards them to the encoder.
type Runtime struct {
	frameW, frameH int
	rf             *RegisterFile
	sink           LabelSink

	setCalls int64
}

// NewRuntime returns a runtime for a w x h pipeline, writing through rf to
// sink. A nil rf gets the default capacity.
func NewRuntime(frameW, frameH int, rf *RegisterFile, sink LabelSink) *Runtime {
	if rf == nil {
		rf = NewRegisterFile(DefaultMaxRegions)
	}
	return &Runtime{frameW: frameW, frameH: frameH, rf: rf, sink: sink}
}

// SetRegionLabels is the developer-facing setter: the paper's
// SetRegionLabels(list<RegionLabel>). The list lands in the shadow register
// bank and takes effect at the next FrameBoundary; labels persist across
// frames until replaced.
func (rt *Runtime) SetRegionLabels(ls region.List) error {
	rt.setCalls++
	if err := ls.Validate(rt.frameW, rt.frameH); err != nil {
		return fmt.Errorf("driver: rejected label list: %w", err)
	}
	return rt.rf.Load(ls.Clone().SortByY())
}

// FrameBoundary commits pending register writes and pushes the active
// configuration to the encoder. The capture pipeline calls this at the
// start of every frame.
func (rt *Runtime) FrameBoundary() error {
	committed := rt.rf.Pending()
	rt.rf.Commit()
	if committed && rt.sink != nil {
		// The hardware consumes what is actually in the registers.
		return rt.sink.SetRegionLabels(rt.rf.Read())
	}
	return nil
}

// SetCalls returns the number of SetRegionLabels invocations.
func (rt *Runtime) SetCalls() int64 { return rt.setCalls }

// RegisterFile exposes the underlying register file for overhead reporting.
func (rt *Runtime) RegisterFile() *RegisterFile { return rt.rf }
