package ddp

import "testing"

func TestAllreduceCost(t *testing.T) {
	if AllreduceSeconds(1, 1<<20) != 0 {
		t.Fatal("single GPU must have zero comm")
	}
	c2 := AllreduceSeconds(2, 1<<20)
	c4 := AllreduceSeconds(4, 1<<20)
	if c2 <= 0 || c4 <= c2 {
		t.Fatalf("comm must grow with world size: %g %g", c2, c4)
	}
	// Bigger payload costs more.
	if AllreduceSeconds(4, 1<<24) <= c4 {
		t.Fatal("comm must grow with payload")
	}
}
