// Package cloudsim reproduces the paper's Hostlo cost simulation
// (§5.3.1, Fig. 9): for each user, price the VMs needed to host their
// pods under Kubernetes' whole-pod placement versus Hostlo's
// container-level placement, using the AWS EC2 m5 on-demand catalog of
// Table 2.
package cloudsim

// VMType is one catalog entry. Relative capacities are fractions of the
// largest model (m5.24xlarge: 96 vCPUs, 384 GB), matching how the Google
// trace expresses requests.
type VMType struct {
	Name      string
	VCPU      int
	MemGB     int
	RelCPU    float64
	RelMem    float64
	PricePerH float64 // USD per hour
}

// Catalog returns Table 2 verbatim: the AWS EC2 m5 on-demand models the
// paper simulates with.
func Catalog() []VMType {
	return []VMType{
		{Name: "large", VCPU: 2, MemGB: 8, RelCPU: 0.0208, RelMem: 0.0208, PricePerH: 0.112},
		{Name: "xlarge", VCPU: 4, MemGB: 16, RelCPU: 0.0417, RelMem: 0.0417, PricePerH: 0.224},
		{Name: "2xlarge", VCPU: 8, MemGB: 32, RelCPU: 0.0833, RelMem: 0.0833, PricePerH: 0.448},
		{Name: "4xlarge", VCPU: 16, MemGB: 64, RelCPU: 0.1667, RelMem: 0.1667, PricePerH: 0.896},
		{Name: "12xlarge", VCPU: 48, MemGB: 192, RelCPU: 0.5, RelMem: 0.5, PricePerH: 2.689},
		{Name: "24xlarge", VCPU: 96, MemGB: 384, RelCPU: 1, RelMem: 1, PricePerH: 5.376},
	}
}

// CheapestFitting returns the index of the cheapest catalog type able
// to host (cpu, mem), or -1 when the request exceeds every machine.
func CheapestFitting(catalog []VMType, cpu, mem float64) int {
	best := -1
	for i, t := range catalog {
		if t.RelCPU >= cpu && t.RelMem >= mem {
			if best == -1 || t.PricePerH < catalog[best].PricePerH {
				best = i
			}
		}
	}
	return best
}
