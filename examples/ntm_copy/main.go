// Trainable NTM demo (§III): trains a Neural Turing Machine end-to-end on
// the classic copy task — backpropagation flows through the LSTM
// controller, the content/interpolate/shift addressing, the erase-add soft
// writes, and the soft reads. These differentiable-memory operations are
// exactly the kernels X-MANN accelerates; the demo finishes by pricing the
// trained machine's memory traffic on the accelerator model vs the GPU
// baseline.
package main

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/mann"
	"repro/internal/perfmodel"
	"repro/internal/rngutil"
	"repro/internal/tensor"
	"repro/internal/xmann"
)

func main() {
	const bits = 4
	rng := rngutil.New(33)
	m := mann.NewTrainableNTM(12, 8, bits+2, bits, 24, rng)
	dr := rng.Child("payloads")

	fmt.Println("training NTM on the copy task (1-3 item payloads)...")
	running := 0.7
	for i := 1; i <= 2500; i++ {
		n := 1 + dr.Intn(3)
		loss := m.CopyTaskLoss(dataset.CopyTask(n, bits, dr), 1.0, 10)
		running = 0.98*running + 0.02*loss
		if i%500 == 0 {
			fmt.Printf("  seq %5d: running recall BCE %.4f\n", i, running)
		}
	}

	// Show one copy episode: payload in, recalled bits out.
	payload := dataset.CopyTask(3, bits, dr)
	T := 2*len(payload) + 2
	xs := make([]tensor.Vector, T)
	start := tensor.NewVector(bits + 2)
	start[bits] = 1
	end := tensor.NewVector(bits + 2)
	end[bits+1] = 1
	xs[0] = start
	for i, p := range payload {
		v := tensor.NewVector(bits + 2)
		copy(v, p)
		xs[1+i] = v
	}
	xs[1+len(payload)] = end
	for t := 2 + len(payload); t < T; t++ {
		xs[t] = tensor.NewVector(bits + 2)
	}
	ys, _ := m.ForwardSeq(xs)
	fmt.Println("\nsample episode (threshold 0.5):")
	correct, total := 0, 0
	for i, p := range payload {
		y := ys[len(payload)+2+i]
		rec := make([]int, bits)
		for j := range rec {
			if y[j] > 0.5 {
				rec[j] = 1
			}
			if float64(rec[j]) == p[j] {
				correct++
			}
			total++
		}
		fmt.Printf("  stored %v -> recalled %v (p=%.2f %.2f %.2f %.2f)\n",
			p, rec, y[0], y[1], y[2], y[3])
	}
	fmt.Printf("bit accuracy on this episode: %d/%d\n", correct, total)

	// Price the trained machine's memory traffic (§III): trace the actual
	// soft reads/writes and run them through the accelerator model.
	w := xmann.WorkloadFromTrace("ntm-copy-trained", 12, 8, T, mann.MemOps{
		Similarities: int64(2 * T), SoftReads: int64(T), SoftWrites: int64(T),
	}, float64(4*24*(bits+2+8+24)))
	cmp := xmann.Compare([]xmann.Workload{w}, xmann.DefaultParams(), perfmodel.DefaultGPU())[0]
	fmt.Printf("\naccelerating this machine's memory ops (X-MANN model vs GPU):\n")
	fmt.Printf("  speedup %.1fx, energy reduction %.1fx per inference\n", cmp.Speedup, cmp.EnergyRatio)
	fmt.Println("  (tiny memories are launch-overhead wins; see `repro-all T1` for the suite)")
}
