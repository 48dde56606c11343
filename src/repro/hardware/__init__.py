"""Hardware catalog: parts (Table 1), nodes (Table 5), systems (Table 2)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.hardware.fabdata": (
        "ProcessNode", "PROCESS_NODES", "get_process_node",
        "EPC_DRAM_G_PER_GB", "EPC_SSD_G_PER_GB", "EPC_HDD_G_PER_GB",
        "STORAGE_PACKAGING_TO_MANUFACTURING_RATIO",
    ),
    "repro.hardware.parts": (
        "ComponentClass", "ProcessorKind", "StorageKind", "ProcessorSpec",
        "MemorySpec", "StorageSpec", "PartSpec",
    ),
    "repro.hardware.catalog": (
        "GPU_MI250X", "GPU_A100", "GPU_A100_SXM4", "GPU_V100", "GPU_P100",
        "CPU_EPYC_7763", "CPU_EPYC_7742", "CPU_EPYC_7542", "CPU_XEON_6240R",
        "CPU_XEON_E5_2680", "DRAM_64GB", "SSD_3_2TB", "HDD_16TB",
        "TABLE1_PARTS", "TABLE1_PROCESSORS", "TABLE1_GPUS", "TABLE1_CPUS",
        "TABLE1_MEMORY_STORAGE", "ALL_PARTS", "get_part", "list_parts",
    ),
    "repro.hardware.node": (
        "NodeSpec", "PROCESSOR_CLASSES", "ALL_CLASSES", "node_generations",
        "get_node_generation", "p100_node", "v100_node", "a100_node",
    ),
    "repro.hardware.systems": (
        "SystemSpec", "frontier", "lumi", "perlmutter", "studied_systems",
        "get_system", "drives_for_capacity",
    ),
    "repro.hardware.network": (
        "NetworkDeviceSpec", "NIC_SLINGSHOT", "SWITCH_SLINGSHOT_64PORT",
        "NETWORK_DEVICES", "get_network_device", "InterconnectEstimate",
        "estimate_fat_tree_interconnect", "system_share_with_interconnect",
    ),
    "repro.hardware.replacement": (
        "ReplacementModel", "DEFAULT_ANNUAL_REPLACEMENT_RATES",
    ),
})
