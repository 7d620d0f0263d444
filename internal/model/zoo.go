package model

import "strings"

// The model zoo mirrors the workloads in the paper's evaluation
// (§7, "Experimental setup"). Layer counts and hidden sizes are the
// published configurations: GPT-2 2.5B has 54 layers × H=1920 at
// sequence length 1024 (§3, Observation 1); 8.3B is Megatron's 72 × 3072;
// 20B is 96 layers (Table 4); 200B is 100 layers × H=12960 (§7.1.1);
// BERT-72 is the single-node GPipe comparison model (Table 5).

// BERTLarge is the 340M-parameter BERT-large at sequence length 512.
func BERTLarge() *Spec { return Build("BERT-large", 24, 1024, 512, 30522, true) }

// BERT72 is the 72-layer, hidden-1024 BERT used for the GPipe
// comparison in Table 5.
func BERT72() *Spec { return Build("BERT-72", 72, 1024, 512, 30522, true) }

// GPT2Small355M is the 355M GPT-2 used in the PipeDream-2BW appendix.
func GPT2Small355M() *Spec { return Build("GPT2-355M", 24, 1024, 512, 50257, true) }

// GPT2XL2B is the 2.5-billion-parameter GPT-2 (54 layers, H=1920).
func GPT2XL2B() *Spec { return Build("GPT2-2.5B", 54, 1920, 1024, 50257, true) }

// GPT2Megatron8B is the Megatron 8.3-billion-parameter GPT-2
// (72 layers, H=3072).
func GPT2Megatron8B() *Spec { return Build("GPT2-8.3B", 72, 3072, 1024, 50257, true) }

// GPT2Twenty19B is the 19.2B variant Megatron can fit with 16-way
// intra-layer partitioning inside one DGX-2 (Table 4).
func GPT2Twenty19B() *Spec { return Build("GPT2-19.2B", 96, 4080, 1024, 50257, true) }

// GPT2Twenty20B is the 20-billion-parameter GPT-2 (96 layers).
func GPT2Twenty20B() *Spec { return Build("GPT2-20B", 96, 4160, 1024, 50257, true) }

// GPT2TwoHundredB is the 200-billion-parameter model: 100 layers with
// hidden size 12960 (§7.1.1).
func GPT2TwoHundredB() *Spec { return Build("GPT2-200B", 100, 12960, 1024, 50257, true) }

// Zoo lists every model in the evaluation, smallest first.
func Zoo() []*Spec {
	return []*Spec{
		BERTLarge(),
		GPT2Small355M(),
		BERT72(),
		GPT2XL2B(),
		GPT2Megatron8B(),
		GPT2Twenty19B(),
		GPT2Twenty20B(),
		GPT2TwoHundredB(),
	}
}

// ByName resolves a zoo model by name, case-insensitively, so the
// lower-case "gpt2-8.3b" form the CLIs accept names GPT2-8.3B.
func ByName(name string) (*Spec, bool) {
	for _, s := range Zoo() {
		if strings.EqualFold(s.Name, name) {
			return s, true
		}
	}
	return nil, false
}
