package model

import (
	"math"
	"strings"
	"testing"
)

func TestZooParamCounts(t *testing.T) {
	// Parameter counts must land near the published sizes.
	cases := []struct {
		spec *Spec
		want float64 // billions
		tol  float64 // relative
	}{
		{BERTLarge(), 0.34, 0.15},
		{GPT2Small355M(), 0.355, 0.15},
		{GPT2XL2B(), 2.5, 0.10},
		{GPT2Megatron8B(), 8.3, 0.05},
		{GPT2Twenty19B(), 19.2, 0.05},
		{GPT2Twenty20B(), 20.0, 0.05},
		{GPT2TwoHundredB(), 200.0, 0.02},
	}
	for _, c := range cases {
		got := float64(c.spec.Params()) / 1e9
		if math.Abs(got-c.want)/c.want > c.tol {
			t.Errorf("%s: %.3fB params, want %.3fB ±%.0f%%", c.spec.Name, got, c.want, c.tol*100)
		}
	}
}

func TestBlockActivationMatchesPaper(t *testing.T) {
	// §3.1: "for 2.5B GPT-2, this is only 3.75 MB per input example".
	s := GPT2XL2B()
	gotMB := float64(s.BlockActivationBytes()) / (1 << 20)
	if math.Abs(gotMB-3.75) > 0.01 {
		t.Fatalf("block activation = %.3f MB, want 3.75 MB", gotMB)
	}
}

func TestOpsStructure(t *testing.T) {
	s := Build("tiny", 2, 64, 32, 100, true)
	if len(s.Ops) != 2+4*2 {
		t.Fatalf("ops = %d, want embedding + 4·layers + head = %d", len(s.Ops), 2+4*2)
	}
	if s.Ops[0].Name != "embedding" || s.Ops[len(s.Ops)-1].Name != "lm_head" {
		t.Fatal("op sequence must start with embedding and end with lm_head")
	}
	// Tied embeddings: head owns no params, both in shared group.
	if s.Ops[len(s.Ops)-1].Params != 0 {
		t.Fatal("tied lm_head must own no parameters")
	}
	if s.Ops[0].SharedGroup != "embedding" || s.Ops[len(s.Ops)-1].SharedGroup != "embedding" {
		t.Fatal("tied embeddings must share a group")
	}
	untied := Build("tiny-untied", 2, 64, 32, 100, false)
	if untied.Ops[len(untied.Ops)-1].Params == 0 {
		t.Fatal("untied lm_head must own parameters")
	}
}

func TestLayerParamArithmetic(t *testing.T) {
	// A transformer block must hold 12·H² parameters.
	s := Build("x", 1, 128, 32, 100, true)
	var block int64
	for _, op := range s.Ops {
		if strings.HasPrefix(op.Name, "layer0/") {
			block += op.Params
		}
	}
	if want := int64(12 * 128 * 128); block != want {
		t.Fatalf("block params = %d, want 12·H² = %d", block, want)
	}
}

func TestFindCutPointsPrefersBlockBoundaries(t *testing.T) {
	s := GPT2XL2B()
	cuts, err := FindCutPoints(s, s.NumLayers-1)
	if err != nil {
		t.Fatal(err)
	}
	block := s.BlockActivationBytes()
	for _, c := range cuts {
		if c.CutBytes > block {
			t.Errorf("cut at %s carries %d bytes > block boundary %d; finder picked a high-activation boundary",
				c.Name, c.CutBytes, block)
		}
	}
}

func TestFindCutPointsErrors(t *testing.T) {
	s := Build("tiny", 2, 64, 32, 100, true)
	if _, err := FindCutPoints(s, 0); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := FindCutPoints(s, len(s.Ops)); err == nil {
		t.Fatal("k >= number of ops must error")
	}
}

func TestFindCutPointsOrderedUnique(t *testing.T) {
	s := GPT2Megatron8B()
	cuts, err := FindCutPoints(s, 47)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 47 {
		t.Fatalf("got %d cuts, want 47", len(cuts))
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i].OpIndex <= cuts[i-1].OpIndex {
			t.Fatal("cut-points must be strictly increasing in op order")
		}
	}
}

func TestPartitionCoversModel(t *testing.T) {
	s := GPT2XL2B()
	cuts, err := FindCutPoints(s, 53)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 6, 9, 18, 27} {
		stages, err := Partition(s, cuts, p, true)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if len(stages) != p {
			t.Fatalf("P=%d: got %d stages", p, len(stages))
		}
		// Stages are contiguous, cover all ops, conserve params/flops.
		next := 0
		var params int64
		var flops float64
		for i, st := range stages {
			if st.Index != i || st.FirstOp != next || st.LastOp < st.FirstOp {
				t.Fatalf("P=%d stage %d malformed: %+v", p, i, st)
			}
			next = st.LastOp + 1
			params += st.Params
			flops += st.FwdFlops
		}
		if next != len(s.Ops) {
			t.Fatalf("P=%d: stages do not cover the model", p)
		}
		if params != s.Params() {
			t.Fatalf("P=%d: params not conserved: %d vs %d", p, params, s.Params())
		}
		if math.Abs(flops-s.FwdFlopsPerExample())/flops > 1e-9 {
			t.Fatalf("P=%d: flops not conserved", p)
		}
		if stages[len(stages)-1].SendBytes != 0 {
			t.Fatalf("P=%d: last stage must send nothing", p)
		}
	}
}

func TestPartitionBalance(t *testing.T) {
	s := GPT2Megatron8B()
	cuts, err := FindCutPoints(s, 71)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{6, 9, 18, 24, 36} {
		stages, err := Partition(s, cuts, p, false)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if imb := MaxImbalance(stages); imb > 1.35 {
			t.Errorf("P=%d: imbalance %.3f too high", p, imb)
		}
	}
}

func TestPartitionPackHeadLast(t *testing.T) {
	s := GPT2XL2B()
	cuts, err := FindCutPoints(s, 53)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := Partition(s, cuts, 9, true)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Partition(s, cuts, 9, false)
	if err != nil {
		t.Fatal(err)
	}
	// Packing must give the last stage at least as much compute as the
	// unpacked split does.
	if packed[8].FwdFlops < flat[8].FwdFlops {
		t.Fatalf("packHeadLast gave last stage %.3g flops < unpacked %.3g",
			packed[8].FwdFlops, flat[8].FwdFlops)
	}
}

func TestPartitionErrors(t *testing.T) {
	s := Build("tiny", 2, 64, 32, 100, true)
	cuts, err := FindCutPoints(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Partition(s, cuts, 0, false); err == nil {
		t.Fatal("P=0 must error")
	}
	if _, err := Partition(s, cuts, len(cuts)+2, false); err == nil {
		t.Fatal("P > cuts+1 must error")
	}
}

func TestSharedAcrossStages(t *testing.T) {
	s := GPT2XL2B()
	cuts, err := FindCutPoints(s, 53)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Partition(s, cuts, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := SharedAcrossStages(s, single); len(got) != 0 {
		t.Fatalf("single stage cannot split shared params, got %v", got)
	}
	multi, err := Partition(s, cuts, 9, true)
	if err != nil {
		t.Fatal(err)
	}
	got := SharedAcrossStages(s, multi)
	if len(got) != 1 || got[0] != "embedding" {
		t.Fatalf("tied embedding must be flagged when split, got %v", got)
	}
}

func TestMemoryPipeDreamOOM(t *testing.T) {
	// Table 6: PipeDream's P weight copies OOM on the 8.3B model at
	// P=18 on 16 GB GPUs, while sync systems (1 copy) fit.
	s := GPT2Megatron8B()
	cuts, err := FindCutPoints(s, 71)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := Partition(s, cuts, 18, true)
	if err != nil {
		t.Fatal(err)
	}
	gpuMem := int64(16) << 30
	m, nm := 4, 34
	var varunaFits, pipedreamFits = true, true
	for _, st := range stages {
		if !(MemoryModel{Spec: s, Stage: st, WeightCopies: 1}).Fits(m, nm, 18, gpuMem) {
			varunaFits = false
		}
		if !(MemoryModel{Spec: s, Stage: st, WeightCopies: 18}).Fits(m, nm, 18, gpuMem) {
			pipedreamFits = false
		}
	}
	if !varunaFits {
		t.Fatal("Varuna (1 weight copy) must fit 8.3B at P=18 on 16GB")
	}
	if pipedreamFits {
		t.Fatal("PipeDream (P weight copies) must OOM on 8.3B at P=18")
	}
}

func TestMinPipelineDepth(t *testing.T) {
	s := GPT2Megatron8B()
	cuts, err := FindCutPoints(s, 71)
	if err != nil {
		t.Fatal(err)
	}
	gpuMem := int64(16) << 30
	p := MinPipelineDepth(s, cuts, 4, 32, gpuMem, 1)
	if p == 0 {
		t.Fatal("8.3B must fit at some depth on 16GB")
	}
	// 8.3B needs 16·8.3e9 = 133 GB of state alone → at least 9 stages.
	if p < 9 {
		t.Fatalf("min depth %d implausibly small for 8.3B on 16GB", p)
	}
	// And monotonicity: the found depth fits, one less does not.
	stages, err := Partition(s, cuts, p, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stages {
		if !(MemoryModel{Spec: s, Stage: st, WeightCopies: 1}).Fits(4, 32, p, gpuMem) {
			t.Fatalf("reported min depth %d does not fit", p)
		}
	}
}

func TestMemoryOffloadOptimizer(t *testing.T) {
	// §7.1.1: the 200B model runs 102 stages with optimizer state in
	// CPU memory. Offload must reduce the footprint materially.
	s := GPT2TwoHundredB()
	cuts, err := FindCutPoints(s, 101)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := Partition(s, cuts, 102, true)
	if err != nil {
		t.Fatal(err)
	}
	st := stages[1]
	on := MemoryModel{Spec: s, Stage: st, WeightCopies: 1}
	off := MemoryModel{Spec: s, Stage: st, WeightCopies: 1, OffloadOptimizer: true}
	if off.BytesNeeded(1, 512, 102) >= on.BytesNeeded(1, 512, 102) {
		t.Fatal("offloading optimizer state must shrink GPU memory")
	}
}

func TestStringFormats(t *testing.T) {
	s := GPT2XL2B()
	str := s.String()
	if !strings.Contains(str, "GPT2-2.5B") || !strings.Contains(str, "54L") {
		t.Fatalf("String() = %q", str)
	}
	if humanParams(2_500_000_000) != "2.5B" || humanParams(340_000_000) != "340M" || humanParams(12) != "12" {
		t.Fatal("humanParams formatting wrong")
	}
	if roundUp(7, 4) != 8 || roundUp(8, 4) != 8 || roundUp(5, 0) != 5 {
		t.Fatal("roundUp wrong")
	}
}

func TestResNetSpec(t *testing.T) {
	// Varuna's generality claim (§7): the cut-point machinery handles
	// convolutional residual networks too.
	r := ResNet152()
	if r.Params() < 20e6 || r.Params() > 200e6 {
		t.Fatalf("ResNet-152 params = %d, implausible", r.Params())
	}
	// CNNs concentrate activation volume early, so usable low-
	// activation boundaries skew late; allow a wider candidate set
	// and accept moderate imbalance.
	cuts, err := FindCutPoints(r, 40)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := Partition(r, cuts, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if imb := MaxImbalance(stages); imb > 2.0 {
		t.Fatalf("ResNet partition imbalance %.2f", imb)
	}
	// Cut-points must prefer the small late-stage feature maps over
	// the huge early ones: the mean cut activation should be well
	// below the stem's output.
	stemOut := r.Ops[0].OutBytes
	var sum int64
	for _, c := range cuts {
		sum += c.CutBytes
	}
	if mean := sum / int64(len(cuts)); mean > stemOut {
		t.Fatalf("mean cut activation %d exceeds stem output %d", mean, stemOut)
	}
}

func TestResNetSimulates(t *testing.T) {
	// The whole pipeline stack runs on the CNN spec unchanged.
	r := ResNet152()
	cuts, err := FindCutPoints(r, 24)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := Partition(r, cuts, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, st := range stages {
		total += st.Params
	}
	if total != r.Params() {
		t.Fatal("partition must conserve parameters")
	}
}

func TestByName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"GPT2-8.3B", "GPT2-8.3B"},
		{"gpt2-8.3b", "GPT2-8.3B"},
		{"gpt2-2.5B", "GPT2-2.5B"},
		{"bert-large", "BERT-large"},
		{"BERT-72", "BERT-72"},
	} {
		s, ok := ByName(tc.in)
		if !ok || s.Name != tc.want {
			t.Errorf("ByName(%q) = %v, %v; want %s", tc.in, s, ok, tc.want)
		}
	}
	for _, bad := range []string{"", "gpt2", "8.3b", "GPT2-8.3B "} {
		if s, ok := ByName(bad); ok {
			t.Errorf("ByName(%q) resolved to %s", bad, s.Name)
		}
	}
}
