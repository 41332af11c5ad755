package workloads

import (
	"fmt"
	"math"

	"repro/internal/gpu"
)

// The one shape of a host program: a benchmark file states its inputs,
// golden model, predicted outputs and a straight-line body; the error
// checks, the vendor's kernel choice and the output comparison are here.

// run is one execution of a program's body on one device. The first
// error is latched: after it floats, words, alloc and launch do nothing,
// so a body needs no error handling and a failed program touches the
// device no further.
type run struct {
	d   gpu.Device
	v   gpu.Vendor
	err error
}

// floats allocates a buffer, uploads vals and returns its address.
func (r *run) floats(vals []float32) uint32 {
	if r.err != nil {
		return 0
	}
	var addr uint32
	addr, r.err = r.d.Mem().AllocFloats(vals)
	return addr
}

// words is floats for 32-bit integer input.
func (r *run) words(vals []uint32) uint32 {
	if r.err != nil {
		return 0
	}
	var addr uint32
	addr, r.err = r.d.Mem().AllocWords(vals)
	return addr
}

// alloc reserves an uninitialised buffer of n 32-bit words.
func (r *run) alloc(n int) uint32 {
	if r.err != nil {
		return 0
	}
	var addr uint32
	addr, r.err = r.d.Mem().Alloc(4 * n)
	return addr
}

// launch runs the device vendor's build of a kernel. amdExtra are the
// trailing kernargs only the SI build takes: SI has no special register
// for the group size, so most kernels are passed it after the arguments
// both builds share.
func (r *run) launch(sassKernel, siKernel gpu.Kernel, grid, group gpu.Dim3, args []uint32, amdExtra ...uint32) {
	if r.err != nil {
		return
	}
	spec := gpu.LaunchSpec{Kernel: sassKernel, Grid: grid, Group: group, Args: args}
	if r.v == gpu.AMD {
		spec.Kernel = siKernel
		spec.Args = append(args, amdExtra...)
	}
	r.err = r.d.Launch(spec)
}

// output is one device region the golden model predicts. The body fills
// in addr when it allocates the buffer.
type output struct {
	label string   // names the region in Verify's message
	want  []uint32 // expected 32-bit patterns
	float bool     // mismatches print as float32
	addr  uint32
}

// floatOutput predicts a float32 region, compared bit for bit: kernels
// and golden models share the exact float32 operation order. The
// patterns are taken here, once, not per Verify.
func floatOutput(label string, want []float32) *output {
	bits := make([]uint32, len(want))
	for i, f := range want {
		bits[i] = math.Float32bits(f)
	}
	return &output{label: label, want: bits, float: true}
}

// wordOutput predicts a region of 32-bit integers.
func wordOutput(label string, want []uint32) *output {
	return &output{label: label, want: want}
}

// verify compares the device region against the prediction.
func (o *output) verify(d gpu.Device) error {
	got, err := d.Mem().ReadWords(o.addr, len(o.want))
	if err != nil {
		return fmt.Errorf("%s: reading output: %w", o.label, err)
	}
	for i, w := range o.want {
		if got[i] == w {
			continue
		}
		if o.float {
			return fmt.Errorf("%s: output[%d] = %v (%#x), want %v (%#x)",
				o.label, i, math.Float32frombits(got[i]), got[i], math.Float32frombits(w), w)
		}
		return fmt.Errorf("%s: output[%d] = %d, want %d", o.label, i, got[i], w)
	}
	return nil
}

// hostProgram builds the gpu.HostProgram of one benchmark build: Run
// executes body on the device, Outputs and Verify are derived from outs,
// in the order given. Run returns the first failed call's error itself,
// never a re-wrapped one: finject.classify tells a hang, a corrupt
// checkpoint and a crash apart with errors.Is on it.
func hostProgram(name string, v gpu.Vendor, body func(r *run), outs ...*output) (*gpu.HostProgram, error) {
	if v != gpu.NVIDIA && v != gpu.AMD {
		return nil, fmt.Errorf("workloads: %s: no %s build", name, v)
	}
	return &gpu.HostProgram{
		Name: name,
		Run: func(d gpu.Device) error {
			r := run{d: d, v: v}
			body(&r)
			return r.err
		},
		Outputs: func() []gpu.Region {
			regions := make([]gpu.Region, len(outs))
			for i, o := range outs {
				regions[i] = gpu.Region{Addr: o.addr, Size: uint32(4 * len(o.want))}
			}
			return regions
		},
		Verify: func(d gpu.Device) error {
			for _, o := range outs {
				if err := o.verify(d); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}
