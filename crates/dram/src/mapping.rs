//! Machine-physical address → DRAM location mapping.
//!
//! As in real systems (and as the paper notes in §II-A), the machine-physical
//! address produced by CTE translation is converted into
//! `col:row:bank:channel` coordinates by a *static* mapping function. We use
//! a Ramulator-style `Ro:Ra:Bg:Ba:Co:Ch` layout over 64 B block indices:
//! consecutive blocks interleave across channels first, then walk a row
//! (row-buffer-friendly for streaming and page migrations), then spread
//! across banks, bank groups, ranks, and finally rows.

use dylect_sim_core::MachineAddr;

use crate::config::DramGeometry;

/// Decoded DRAM coordinates of one 64 B block.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Location {
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// Flat bank index within the rank (bank group folded in).
    pub bank: u32,
    /// Row index within the bank.
    pub row: u64,
    /// 64 B column (block) index within the row.
    pub column: u64,
}

/// The static address-mapping function.
///
/// Every field but the row is a power-of-two count, so decoding is shifts
/// and masks precomputed here rather than a chain of divisions.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AddressMapper {
    geometry: DramGeometry,
    channel_bits: u32,
    column_bits: u32,
    bank_bits: u32,
    rank_bits: u32,
}

impl AddressMapper {
    /// Creates a mapper for the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the channel, blocks-per-row, banks-per-rank or rank count
    /// is not a power of two.
    pub fn new(geometry: DramGeometry) -> Self {
        let bits = |what: &str, n: u64| {
            assert!(n.is_power_of_two(), "{what} = {n} is not a power of two");
            n.trailing_zeros()
        };
        AddressMapper {
            geometry,
            channel_bits: bits("channels", geometry.channels as u64),
            column_bits: bits("blocks per row", geometry.blocks_per_row()),
            bank_bits: bits("banks per rank", geometry.banks_total() as u64),
            rank_bits: bits("ranks", geometry.ranks as u64),
        }
    }

    /// Returns the geometry this mapper was built for.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// The row `addr` falls in, as one key: its block index with the
    /// column bits cleared, so two addresses share a key exactly when they
    /// decode to the same channel, rank, bank and row. Cheaper than two
    /// decodes.
    pub fn row_key(&self, addr: MachineAddr) -> u64 {
        addr.block_index() & !(((1 << self.column_bits) - 1) << self.channel_bits)
    }

    /// Decodes a machine-physical address into DRAM coordinates.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the address is beyond the configured
    /// capacity.
    pub fn decode(&self, addr: MachineAddr) -> Location {
        let g = &self.geometry;
        debug_assert!(
            addr.raw() < g.capacity_bytes(),
            "address {addr} beyond capacity"
        );
        let mut x = addr.block_index();
        let mut field = |bits: u32| {
            let v = x & ((1 << bits) - 1);
            x >>= bits;
            v
        };
        let channel = field(self.channel_bits) as u32;
        let column = field(self.column_bits);
        let bank = field(self.bank_bits) as u32;
        let rank = field(self.rank_bits) as u32;
        Location {
            channel,
            rank,
            bank,
            row: x,
            column,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dylect_sim_core::BLOCK_BYTES;

    fn mapper() -> AddressMapper {
        AddressMapper::new(DramGeometry::ddr4_with_capacity(1 << 30, 8))
    }

    #[test]
    fn consecutive_blocks_walk_a_row() {
        let m = mapper();
        // One channel, so consecutive blocks share bank/row until the row
        // (128 blocks) is exhausted.
        let a = m.decode(MachineAddr::new(0));
        let b = m.decode(MachineAddr::new(BLOCK_BYTES));
        assert_eq!(a.bank, b.bank);
        assert_eq!(a.row, b.row);
        assert_eq!(b.column, a.column + 1);
    }

    #[test]
    fn row_crossing_changes_bank() {
        let m = mapper();
        let row_bytes = 8192;
        let a = m.decode(MachineAddr::new(row_bytes - BLOCK_BYTES));
        let b = m.decode(MachineAddr::new(row_bytes));
        assert_ne!((a.bank, a.column), (b.bank, b.column));
        assert_eq!(b.column, 0);
        assert_eq!(b.bank, a.bank + 1);
    }

    #[test]
    fn decode_is_injective_over_a_sample() {
        let m = mapper();
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            let loc = m.decode(MachineAddr::new(i * BLOCK_BYTES * 97 % (1 << 30)));
            assert!(seen.insert((loc.channel, loc.rank, loc.bank, loc.row, loc.column)));
        }
    }

    /// The div/mod chain the shifts replaced, as the reference.
    fn decode_by_division(g: &DramGeometry, addr: MachineAddr) -> Location {
        let mut x = addr.block_index();
        let channel = (x % g.channels as u64) as u32;
        x /= g.channels as u64;
        let column = x % g.blocks_per_row();
        x /= g.blocks_per_row();
        let bank = (x % g.banks_total() as u64) as u32;
        x /= g.banks_total() as u64;
        let rank = (x % g.ranks as u64) as u32;
        x /= g.ranks as u64;
        Location {
            channel,
            rank,
            bank,
            row: x,
            column,
        }
    }

    #[test]
    fn decode_matches_div_mod_at_8_and_16_ranks() {
        for ranks in [8, 16] {
            let g = DramGeometry::ddr4_with_capacity(1 << 30, ranks);
            let m = AddressMapper::new(g);
            for i in 0..20_000u64 {
                let addr = MachineAddr::new(i * BLOCK_BYTES * 7919 % (1 << 30));
                assert_eq!(m.decode(addr), decode_by_division(&g, addr), "{addr}");
            }
        }
    }

    #[test]
    fn row_key_is_equal_exactly_for_one_decoded_row() {
        for channels in [1, 2] {
            let g = DramGeometry {
                channels,
                ..DramGeometry::ddr4_with_capacity(1 << 30, 8)
            };
            let m = AddressMapper::new(g);
            let row_of = |addr| {
                let l = m.decode(addr);
                (l.channel, l.rank, l.bank, l.row)
            };
            // Neighbours within and across rows, channels and banks.
            for i in 0..5_000u64 {
                let a = MachineAddr::new(i * BLOCK_BYTES * 7919 % g.capacity_bytes());
                for d in [1, channels as u64, 127, 128, 256, 4096] {
                    let b = MachineAddr::new((a.raw() + d * BLOCK_BYTES) % g.capacity_bytes());
                    assert_eq!(
                        m.row_key(a) == m.row_key(b),
                        row_of(a) == row_of(b),
                        "{a} {b}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ranks = 6 is not a power of two")]
    fn rejects_non_power_of_two_ranks() {
        let _ = AddressMapper::new(DramGeometry::ddr4_with_capacity(6 << 27, 6));
    }

    #[test]
    fn coordinates_within_bounds() {
        let m = mapper();
        let g = *m.geometry();
        for i in (0..(1u64 << 30)).step_by(64 * 1013) {
            let loc = m.decode(MachineAddr::new(i));
            assert!(loc.channel < g.channels);
            assert!(loc.rank < g.ranks);
            assert!(loc.bank < g.banks_total());
            assert!(loc.row < g.rows);
            assert!(loc.column < g.blocks_per_row());
        }
    }
}
