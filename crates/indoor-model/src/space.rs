use indoor_geom::{Point, Rect};

use crate::building::Building;
use crate::cells::{derive_cells, Cell, CellDuo};
use crate::door_graph::{DoorGraph, DEFAULT_STAIR_COST};
use crate::ids::{CellId, DoorId, PLocId, PartitionId, SLocId};
use crate::isl_graph::IslGraph;
use crate::location_matrix::LocationMatrix;
use crate::locations::{PLocKind, PLocation, SLocation};

/// Errors detected while assembling an [`IndoorSpace`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpaceError {
    /// A presence P-location lies outside its declared partition.
    PLocOutsidePartition {
        /// The offending P-location.
        ploc: PLocId,
    },
    /// An S-location has no member partitions.
    EmptySLocation {
        /// The offending S-location.
        sloc: SLocId,
    },
    /// An S-location's partitions span more than one floor.
    SLocationSpansFloors {
        /// The offending S-location.
        sloc: SLocId,
    },
    /// Two partitioning P-locations are attached to the same door.
    DuplicateDoorPLoc {
        /// The door with two partitioning P-locations.
        door: DoorId,
    },
}

impl std::fmt::Display for SpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpaceError::PLocOutsidePartition { ploc } => {
                write!(f, "{ploc} lies outside its declared partition")
            }
            SpaceError::EmptySLocation { sloc } => write!(f, "{sloc} has no partitions"),
            SpaceError::SLocationSpansFloors { sloc } => {
                write!(f, "{sloc} spans multiple floors")
            }
            SpaceError::DuplicateDoorPLoc { door } => {
                write!(f, "{door} carries more than one partitioning P-location")
            }
        }
    }
}

impl std::error::Error for SpaceError {}

/// The fully derived indoor space: building topology plus P/S-locations,
/// cells, the indoor space location graph, the indoor location matrix, and
/// the `C2S` / `Cell(·)` mappings of §3.1.1.
///
/// This is the static world model every query algorithm runs against. It
/// is immutable after construction; the paper's observation that "users are
/// allowed to define a set of S-locations for a new task by only
/// reconstructing the corresponding mappings" corresponds to rebuilding
/// this structure with a different S-location list (cells, graph, and
/// matrix derivation are unchanged by S-locations).
#[derive(Debug, Clone)]
pub struct IndoorSpace {
    building: Building,
    plocs: Vec<PLocation>,
    slocs: Vec<SLocation>,
    cells: Vec<Cell>,
    cell_of_partition: Vec<CellId>,
    matrix: LocationMatrix,
    gisl: IslGraph,
    /// `C2S`: S-locations contained in each cell.
    slocs_in_cell: Vec<Vec<SLocId>>,
    /// `Cell(·)`: parent cell(s) of each S-location. One entry for the
    /// paper's single-parent-cell assumption; possibly more for S-locations
    /// spanning cells (our supported extension).
    parent_cells: Vec<Vec<CellId>>,
    /// S-locations containing each partition.
    slocs_of_partition: Vec<Vec<SLocId>>,
    /// S-locations whose region contains each P-location's position (used
    /// by the simple-counting baselines).
    slocs_of_ploc: Vec<Vec<SLocId>>,
}

impl IndoorSpace {
    /// Assembles and validates the space; prefer [`SpaceBuilder`].
    pub fn new(
        building: Building,
        plocs: Vec<PLocation>,
        slocs: Vec<SLocation>,
    ) -> Result<Self, SpaceError> {
        for (i, p) in plocs.iter().enumerate() {
            assert_eq!(p.id.index(), i, "P-location ids must be dense");
        }
        for (i, s) in slocs.iter().enumerate() {
            assert_eq!(s.id.index(), i, "S-location ids must be dense");
        }

        // Validation.
        let mut door_seen = vec![false; building.door_count()];
        for p in &plocs {
            match p.kind {
                PLocKind::Presence { partition } => {
                    let part = building.partition(partition);
                    if !part.rect.contains_point(p.pos) || part.floor != p.floor {
                        return Err(SpaceError::PLocOutsidePartition { ploc: p.id });
                    }
                }
                PLocKind::Partitioning { door } => {
                    if door_seen[door.index()] {
                        return Err(SpaceError::DuplicateDoorPLoc { door });
                    }
                    door_seen[door.index()] = true;
                }
            }
        }
        for s in &slocs {
            if s.partitions.is_empty() {
                return Err(SpaceError::EmptySLocation { sloc: s.id });
            }
            let floor = building.partition(s.partitions[0]).floor;
            if s.partitions
                .iter()
                .any(|&p| building.partition(p).floor != floor)
            {
                return Err(SpaceError::SLocationSpansFloors { sloc: s.id });
            }
        }

        // Derivations.
        let derived = derive_cells(&building, &plocs);
        let gisl = IslGraph::build(&building, &derived, &plocs);
        let cells_of: Vec<CellDuo> = plocs
            .iter()
            .map(|p| match p.kind {
                PLocKind::Partitioning { door } => {
                    let d = building.door(door);
                    CellDuo::two(
                        derived.cell_of_partition[d.a.index()],
                        derived.cell_of_partition[d.b.index()],
                    )
                }
                PLocKind::Presence { partition } => {
                    CellDuo::one(derived.cell_of_partition[partition.index()])
                }
            })
            .collect();
        let matrix = LocationMatrix::build(cells_of);

        let mut parent_cells: Vec<Vec<CellId>> = Vec::with_capacity(slocs.len());
        let mut slocs_in_cell: Vec<Vec<SLocId>> = vec![Vec::new(); derived.cells.len()];
        let mut slocs_of_partition: Vec<Vec<SLocId>> = vec![Vec::new(); building.partition_count()];
        for s in &slocs {
            let mut cells: Vec<CellId> = s
                .partitions
                .iter()
                .map(|&p| derived.cell_of_partition[p.index()])
                .collect();
            cells.sort_unstable();
            cells.dedup();
            for &c in &cells {
                slocs_in_cell[c.index()].push(s.id);
            }
            for &p in &s.partitions {
                slocs_of_partition[p.index()].push(s.id);
            }
            parent_cells.push(cells);
        }

        let slocs_of_ploc = plocs
            .iter()
            .map(|p| {
                let mut hits: Vec<SLocId> = building
                    .partitions_at(p.floor, p.pos)
                    .into_iter()
                    .flat_map(|part| slocs_of_partition[part.index()].iter().copied())
                    .collect();
                hits.sort_unstable();
                hits.dedup();
                hits
            })
            .collect();

        Ok(IndoorSpace {
            building,
            plocs,
            slocs,
            cells: derived.cells,
            cell_of_partition: derived.cell_of_partition,
            matrix,
            gisl,
            slocs_in_cell,
            parent_cells,
            slocs_of_partition,
            slocs_of_ploc,
        })
    }

    /// The wall-and-door substrate.
    pub fn building(&self) -> &Building {
        &self.building
    }

    /// All P-locations, indexed by id.
    pub fn plocs(&self) -> &[PLocation] {
        &self.plocs
    }

    /// A P-location by id.
    pub fn ploc(&self, id: PLocId) -> &PLocation {
        &self.plocs[id.index()]
    }

    /// All S-locations, indexed by id.
    pub fn slocs(&self) -> &[SLocation] {
        &self.slocs
    }

    /// An S-location by id.
    pub fn sloc(&self, id: SLocId) -> &SLocation {
        &self.slocs[id.index()]
    }

    /// All cells, indexed by id.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// A cell by id.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// The cell containing a partition.
    pub fn cell_of_partition(&self, p: PartitionId) -> CellId {
        self.cell_of_partition[p.index()]
    }

    /// The indoor location matrix `MIL`.
    pub fn matrix(&self) -> &LocationMatrix {
        &self.matrix
    }

    /// The indoor space location graph `GISL`.
    pub fn gisl(&self) -> &IslGraph {
        &self.gisl
    }

    /// `C2S`: the S-locations contained in `cell`.
    pub fn slocs_in_cell(&self, cell: CellId) -> &[SLocId] {
        &self.slocs_in_cell[cell.index()]
    }

    /// `Cell(·)`: the parent cell(s) of `sloc` (a single cell under the
    /// paper's assumption).
    pub fn parent_cells(&self, sloc: SLocId) -> &[CellId] {
        &self.parent_cells[sloc.index()]
    }

    /// Whether `cell` covers `sloc` — the test inside the pass-probability
    /// definition (`|{c ∈ C | c covers q}| / |C|`, §2.3).
    #[inline]
    pub fn covers(&self, cell: CellId, sloc: SLocId) -> bool {
        self.parent_cells[sloc.index()].contains(&cell)
    }

    /// S-locations containing a partition.
    pub fn slocs_of_partition(&self, p: PartitionId) -> &[SLocId] {
        &self.slocs_of_partition[p.index()]
    }

    /// S-locations whose region contains the position of `ploc`. Door
    /// P-locations on a shared wall belong to the regions on both sides —
    /// the paper's simple-counting baselines deliberately "allow a
    /// P-location to be counted in multiple S-locations that all contain
    /// it" (§5.1).
    pub fn slocs_of_ploc(&self, ploc: PLocId) -> &[SLocId] {
        &self.slocs_of_ploc[ploc.index()]
    }

    /// Builds the shortest-path oracle for this building.
    pub fn door_graph(&self) -> DoorGraph {
        DoorGraph::build(&self.building, DEFAULT_STAIR_COST)
    }

    /// Estimated heap memory of the derived structures (cells, GISL, MIL,
    /// mappings) in bytes — the paper reports this for its real deployment
    /// (§5.2: "their largest memory consumption is around 147.7 KB") and
    /// synthetic building (§5.3: 3.63 MB).
    pub fn derived_memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let cells: usize = self
            .cells
            .iter()
            .map(|c| size_of::<Cell>() + c.partitions.len() * size_of::<PartitionId>())
            .sum();
        let gisl: usize = self
            .gisl
            .edges()
            .iter()
            .map(|e| size_of::<crate::IslEdge>() + e.plocs.len() * size_of::<PLocId>())
            .sum();
        let maps: usize = self.cell_of_partition.len() * size_of::<CellId>()
            + self
                .slocs_in_cell
                .iter()
                .map(|v| v.len() * size_of::<SLocId>())
                .sum::<usize>()
            + self
                .parent_cells
                .iter()
                .map(|v| v.len() * size_of::<CellId>())
                .sum::<usize>()
            + self
                .slocs_of_partition
                .iter()
                .map(|v| v.len() * size_of::<SLocId>())
                .sum::<usize>()
            + self
                .slocs_of_ploc
                .iter()
                .map(|v| v.len() * size_of::<SLocId>())
                .sum::<usize>();
        cells + gisl + self.matrix.memory_bytes() + maps
    }

    /// Counts of the main entity classes, for reporting.
    pub fn stats(&self) -> SpaceStats {
        SpaceStats {
            partitions: self.building.partition_count(),
            doors: self.building.door_count(),
            plocs: self.plocs.len(),
            partitioning_plocs: self.plocs.iter().filter(|p| p.is_partitioning()).count(),
            slocs: self.slocs.len(),
            cells: self.cells.len(),
            gisl_edges: self.gisl.edge_count(),
            equiv_classes: self.matrix.class_count(),
        }
    }
}

/// Entity counts of an [`IndoorSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceStats {
    /// Number of partitions.
    pub partitions: usize,
    /// Number of doors.
    pub doors: usize,
    /// Number of P-locations of either kind.
    pub plocs: usize,
    /// Number of partitioning P-locations.
    pub partitioning_plocs: usize,
    /// Number of S-locations.
    pub slocs: usize,
    /// Number of cells in the decomposition.
    pub cells: usize,
    /// Number of `GISL` edges.
    pub gisl_edges: usize,
    /// Number of P-location equivalence classes.
    pub equiv_classes: usize,
}

impl std::fmt::Display for SpaceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} partitions, {} doors, {} P-locations ({} partitioning), {} S-locations, \
             {} cells, {} GISL edges, {} equivalence classes",
            self.partitions,
            self.doors,
            self.plocs,
            self.partitioning_plocs,
            self.slocs,
            self.cells,
            self.gisl_edges,
            self.equiv_classes
        )
    }
}

/// Incremental builder for [`IndoorSpace`], assigning dense P/S-location
/// ids in insertion order.
#[derive(Debug)]
pub struct SpaceBuilder {
    building: Building,
    plocs: Vec<PLocation>,
    slocs: Vec<SLocation>,
}

impl SpaceBuilder {
    /// Starts from a validated building.
    pub fn new(building: Building) -> Self {
        SpaceBuilder {
            building,
            plocs: Vec::new(),
            slocs: Vec::new(),
        }
    }

    /// The underlying building.
    pub fn building(&self) -> &Building {
        &self.building
    }

    /// Adds a partitioning P-location at `door` (positioned at the door).
    pub fn partitioning_ploc(&mut self, door: DoorId) -> PLocId {
        let d = self.building.door(door);
        let floor = self.building.partition(d.a).floor;
        let id = PLocId::from_index(self.plocs.len());
        self.plocs.push(PLocation {
            id,
            pos: d.pos,
            floor,
            kind: PLocKind::Partitioning { door },
        });
        id
    }

    /// Adds a presence P-location inside `partition` at `pos`.
    pub fn presence_ploc(&mut self, partition: PartitionId, pos: Point) -> PLocId {
        let floor = self.building.partition(partition).floor;
        let id = PLocId::from_index(self.plocs.len());
        self.plocs.push(PLocation {
            id,
            pos,
            floor,
            kind: PLocKind::Presence { partition },
        });
        id
    }

    /// Adds an S-location over the given partitions.
    pub fn sloc(&mut self, name: impl Into<String>, partitions: Vec<PartitionId>) -> SLocId {
        let id = SLocId::from_index(self.slocs.len());
        let rect = Rect::union_all(partitions.iter().map(|&p| self.building.partition(p).rect))
            .unwrap_or(Rect::from_coords(0.0, 0.0, 0.0, 0.0));
        let floor = partitions
            .first()
            .map(|&p| self.building.partition(p).floor)
            .unwrap_or_default();
        self.slocs.push(SLocation {
            id,
            name: name.into(),
            partitions,
            rect,
            floor,
        });
        id
    }

    /// Validates and produces the derived space.
    pub fn build(self) -> Result<IndoorSpace, SpaceError> {
        IndoorSpace::new(self.building, self.plocs, self.slocs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::building::BuildingBuilder;
    use crate::ids::FloorId;
    use crate::partition::PartitionKind;

    fn simple_space() -> IndoorSpace {
        let mut b = BuildingBuilder::new();
        let room = b.partition(
            "room",
            FloorId(0),
            Rect::from_coords(0.0, 5.0, 10.0, 10.0),
            PartitionKind::Room,
        );
        let hall = b.partition(
            "hall",
            FloorId(0),
            Rect::from_coords(0.0, 0.0, 10.0, 5.0),
            PartitionKind::Hallway,
        );
        let d = b.door(room, hall, Point::new(5.0, 5.0));
        let mut sb = SpaceBuilder::new(b.build().unwrap());
        sb.partitioning_ploc(d);
        sb.presence_ploc(hall, Point::new(2.0, 2.0));
        sb.sloc("room", vec![room]);
        sb.sloc("hall", vec![hall]);
        sb.build().unwrap()
    }

    #[test]
    fn derives_cells_and_mappings() {
        let s = simple_space();
        assert_eq!(s.cells().len(), 2);
        assert_eq!(s.slocs().len(), 2);
        let room_cell = s.cell_of_partition(PartitionId(0));
        let hall_cell = s.cell_of_partition(PartitionId(1));
        assert_ne!(room_cell, hall_cell);
        assert_eq!(s.parent_cells(SLocId(0)), &[room_cell]);
        assert_eq!(s.slocs_in_cell(hall_cell), &[SLocId(1)]);
        assert!(s.covers(room_cell, SLocId(0)));
        assert!(!s.covers(room_cell, SLocId(1)));
    }

    #[test]
    fn door_ploc_counts_for_both_slocs() {
        let s = simple_space();
        // The partitioning P-location sits on the shared wall.
        assert_eq!(s.slocs_of_ploc(PLocId(0)), &[SLocId(0), SLocId(1)]);
        // The presence P-location is strictly inside the hall.
        assert_eq!(s.slocs_of_ploc(PLocId(1)), &[SLocId(1)]);
    }

    #[test]
    fn derived_memory_is_reported() {
        let s = simple_space();
        let bytes = s.derived_memory_bytes();
        assert!(bytes > 0);
        assert!(bytes < 64 * 1024, "tiny space should be well under 64 KiB");
    }

    #[test]
    fn stats_report_counts() {
        let s = simple_space();
        let st = s.stats();
        assert_eq!(st.partitions, 2);
        assert_eq!(st.doors, 1);
        assert_eq!(st.plocs, 2);
        assert_eq!(st.partitioning_plocs, 1);
        assert_eq!(st.cells, 2);
        assert!(st.to_string().contains("2 partitions"));
    }

    #[test]
    fn rejects_presence_ploc_outside_partition() {
        let mut b = BuildingBuilder::new();
        let room = b.partition(
            "room",
            FloorId(0),
            Rect::from_coords(0.0, 0.0, 5.0, 5.0),
            PartitionKind::Room,
        );
        let building = b.build().unwrap();
        let plocs = vec![PLocation {
            id: PLocId(0),
            pos: Point::new(50.0, 50.0),
            floor: FloorId(0),
            kind: PLocKind::Presence { partition: room },
        }];
        assert_eq!(
            IndoorSpace::new(building, plocs, vec![]).unwrap_err(),
            SpaceError::PLocOutsidePartition { ploc: PLocId(0) }
        );
    }

    #[test]
    fn rejects_duplicate_door_ploc() {
        let mut b = BuildingBuilder::new();
        let a = b.partition(
            "a",
            FloorId(0),
            Rect::from_coords(0.0, 0.0, 5.0, 5.0),
            PartitionKind::Room,
        );
        let c = b.partition(
            "c",
            FloorId(0),
            Rect::from_coords(5.0, 0.0, 10.0, 5.0),
            PartitionKind::Room,
        );
        let d = b.door(a, c, Point::new(5.0, 2.0));
        let mut sb = SpaceBuilder::new(b.build().unwrap());
        sb.partitioning_ploc(d);
        sb.partitioning_ploc(d);
        assert_eq!(
            sb.build().unwrap_err(),
            SpaceError::DuplicateDoorPLoc { door: d }
        );
    }

    #[test]
    fn rejects_empty_and_cross_floor_slocs() {
        let mut b = BuildingBuilder::new();
        let a = b.partition(
            "a",
            FloorId(0),
            Rect::from_coords(0.0, 0.0, 5.0, 5.0),
            PartitionKind::Room,
        );
        let up = b.partition(
            "up",
            FloorId(1),
            Rect::from_coords(0.0, 0.0, 5.0, 5.0),
            PartitionKind::Room,
        );
        let building = b.build().unwrap();

        let mut sb = SpaceBuilder::new(building.clone());
        sb.sloc("empty", vec![]);
        assert!(matches!(sb.build(), Err(SpaceError::EmptySLocation { .. })));

        let mut sb = SpaceBuilder::new(building);
        sb.sloc("span", vec![a, up]);
        assert!(matches!(
            sb.build(),
            Err(SpaceError::SLocationSpansFloors { .. })
        ));
    }

    #[test]
    fn multi_partition_sloc_in_one_cell() {
        let mut b = BuildingBuilder::new();
        let a = b.partition(
            "a",
            FloorId(0),
            Rect::from_coords(0.0, 0.0, 5.0, 5.0),
            PartitionKind::Room,
        );
        let c = b.partition(
            "c",
            FloorId(0),
            Rect::from_coords(5.0, 0.0, 10.0, 5.0),
            PartitionKind::Room,
        );
        b.door(a, c, Point::new(5.0, 2.0)); // unguarded → one cell
        let mut sb = SpaceBuilder::new(b.build().unwrap());
        let shop = sb.sloc("shop", vec![a, c]);
        let space = sb.build().unwrap();
        assert_eq!(space.parent_cells(shop).len(), 1);
        assert_eq!(
            space.sloc(shop).rect,
            Rect::from_coords(0.0, 0.0, 10.0, 5.0)
        );
    }
}
