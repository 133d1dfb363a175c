"""Central simulation constants taken verbatim from the paper's Tables I/II/V.

All times in this package are expressed in integer nanoseconds unless a name
says otherwise.  Every latency in Table II is an exact multiple of the 2.5 ns
memory-clock period, so integer nanoseconds are lossless.
"""

# ---------------------------------------------------------------------------
# Table I - processor
# ---------------------------------------------------------------------------

CPU_FREQ_GHZ = 2.0
CPU_CLK_NS = 0.5
CPU_ISSUE_WIDTH = 8
CACHELINE_BYTES = 64

LLC_SIZE_BYTES = 2 * 1024 * 1024
LLC_ASSOC = 16
LLC_HIT_LATENCY_CYCLES = 35          # processor cycles
LLC_HIT_LATENCY_NS = LLC_HIT_LATENCY_CYCLES * CPU_CLK_NS
LLC_MSHRS = 32

# Eager Mellow Writes profiling (Section IV-B1)
USELESS_THRESHOLD_RATIO = 1.0 / 32.0
PROFILE_PERIOD_NS = 500_000
EAGER_IDLE_MAX_ACCESSES = 2          # more LLC accesses per scan: no scan
FUNCTIONAL_WARMUP_OCCUPANCY = 0.95   # untimed LLC pre-fill target

# ---------------------------------------------------------------------------
# Table II - main memory system
# ---------------------------------------------------------------------------

MEM_FREQ_MHZ = 400
MEM_CLK_NS = 2.5
BUS_WIDTH_BYTES = 8                  # 64-bit bus
BURST_NS = CACHELINE_BYTES // BUS_WIDTH_BYTES * MEM_CLK_NS  # 20 ns / line

ROW_BUFFER_BYTES = 1024
ROW_SIZE_BYTES = 16 * 1024

T_RCD_NS = 120                       # 48 memory cycles
T_CAS_NS = 2.5                       # 1 memory cycle
T_FAW_NS = 50
T_FAW_ACTIVATES = 4

T_WP_NORMAL_NS = 150                 # 60 cycles
SLOW_FACTOR_DEFAULT = 3.0
SLOW_FACTORS = (1.0, 1.5, 2.0, 3.0)

READ_QUEUE_ENTRIES = 32
WRITE_QUEUE_ENTRIES = 32
WRITE_DRAIN_LOW = 16                 # drain stops when occupancy falls here
WRITE_DRAIN_HIGH = 32                # drain starts when occupancy reaches here
EAGER_QUEUE_ENTRIES = 16
CANCEL_THRESHOLD = 0.5               # no cancel beyond this pulse progress

DEFAULT_BANKS = 16
DEFAULT_RANKS = 4
BANK_OPTIONS = ((4, 1), (8, 2), (16, 4))   # (banks, ranks)

# Wear Quota (Section IV-C)
TARGET_LIFETIME_YEARS = 8.0
WEAR_QUOTA_PERIOD_NS = 500_000
RATIO_QUOTA = 0.90

# ---------------------------------------------------------------------------
# Endurance model (Section II, Figure 1)
# ---------------------------------------------------------------------------

BASE_ENDURANCE = 5.0e6               # writes at normal (150 ns) latency
EXPO_FACTOR_DEFAULT = 2.0
EXPO_FACTORS = (1.0, 1.5, 2.0, 2.5, 3.0)

# Start-Gap (Qureshi et al., used at bank granularity)
START_GAP_PSI = 100                  # gap moves once per PSI writes
START_GAP_EFFICIENCY = 0.90          # fraction of ideal leveling we credit

# Modeled memory geometry.  The paper does not state total capacity; 16 GiB
# over 16 banks makes Norm lifetimes land in the single-digit-year range the
# paper reports for write-heavy workloads.
MEMORY_CAPACITY_BYTES = 16 * 1024 ** 3

SECONDS_PER_YEAR = 365.25 * 24 * 3600
NS_PER_YEAR = SECONDS_PER_YEAR * 1e9

# ---------------------------------------------------------------------------
# Table V - ReRAM cell parameters (22 nm)
# ---------------------------------------------------------------------------

READ_VOLTAGE_V = 0.20
WRITE_VOLTAGE_NORMAL_V = 1.00
WRITE_VOLTAGE_SLOW_V = 0.95
READ_POWER_UW = 0.02

# Energy per cell (pJ) for normal set/reset; slow = 2.3x (0.767x power, 3x time)
CELL_ENERGIES_PJ = {
    "CellA": 0.1,
    "CellB": 0.2,
    "CellC": 0.4,
    "CellD": 0.8,
    "CellE": 1.6,
}
SLOW_CELL_ENERGY_RATIO = 2.3
SLOW_POWER_RATIO = 0.767

# Figure 16 energy accounting assumptions
ROW_BUFFER_HIT_READ_PJ = 100.0
DEFAULT_ENERGY_CELL = "CellC"
