"""Location-aware "greenness" ranking (paper RQ5 implication).

The paper argues the Green500's FLOPS/W metric misses two factors: the
carbon intensity of the energy actually feeding the machine, and the
embodied carbon of its hardware.  This example ranks three hypothetical
deployments of the *same* Table 5 A100 node fleet — differing only in
region — plus a less efficient V100 fleet on a clean grid, under three
metrics:

1. classic efficiency (GFLOPS/W),
2. operational carbon per year,
3. total (embodied + operational) carbon over a 5-year life.

The ranking itself is :func:`repro.analysis.ranking.rank_deployments`.

Run:  python examples/green500_reranking.py
"""

from repro.analysis.ranking import Deployment, rank_deployments
from repro.analysis.render import format_table
from repro.core import format_co2
from repro.hardware import a100_node, v100_node
from repro.intensity import generate_all_traces

FLEET_NODES = 200
USAGE = 0.4
YEARS = 5.0


def main() -> None:
    traces = generate_all_traces()
    fleets = [
        Deployment(name, node, FLEET_NODES, intensity, usage=USAGE)
        for name, node, intensity in (
            ("A100 fleet @ MISO", a100_node(), traces["MISO"]),
            ("A100 fleet @ ESO", a100_node(), traces["ESO"]),
            ("A100 fleet @ hydro", a100_node(), 20.0),
            ("V100 fleet @ hydro", v100_node(), 20.0),
        )
    ]
    rankings = rank_deployments(fleets, service_years=YEARS)

    print(
        f"Fleets of {FLEET_NODES} nodes, {USAGE:.0%} duty cycle, "
        f"PUE {fleets[0].effective_pue():g}\n"
    )
    for metric, key, value in (
        ("GFLOPS/W (Green500-style)", "efficiency",
         lambda m: f"{m.gflops_per_w:.1f}"),
        ("operational carbon / year", "operational",
         lambda m: format_co2(m.operational_g_per_year)),
        ("total 5-year carbon (Eq. 1)", "total",
         lambda m: format_co2(m.total_g_over_life)),
    ):
        rows = [
            (rank, m.name, value(m))
            for rank, m in enumerate(rankings[key], start=1)
        ]
        print(f"Ranking by {metric}:")
        print(format_table(["#", "Fleet", metric], rows))
        print()

    print(
        "The V100 fleet loses the efficiency ranking but its hydro grid "
        "makes it greener *operationally* than the most efficient fleet on "
        "a fossil grid — and once embodied carbon is included, even the "
        "ordering among identical A100 fleets is set entirely by location. "
        "Greenness rankings must account for energy mix and embodied carbon "
        "(paper Insight 6)."
    )


if __name__ == "__main__":
    main()
