//! Per-node input labels: ports, colors, and the composite [`NodeLabel`].

use std::fmt;

/// A port number, `1..=deg(v)` (paper §2.1).
///
/// Ports are the only way an algorithm in the query model can address a
/// neighbor: `query(w, j)` asks for the endpoint of the edge leaving `w`
/// through port `j`. Tree labelings (Definition 3.1) store *ports*, not node
/// identities, so `P(v)`, `LC(v)`, … are all values of this type.
///
/// The type is a thin wrapper over a 1-based `u8`; the paper's label set
/// `P = [Δ] ∪ {⊥}` is represented as `Option<Port>` with `None` playing the
/// role of `⊥`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Port(u8);

impl Port {
    /// Creates a port from a 1-based port number.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`; port numbers are 1-based.
    pub fn new(p: u8) -> Self {
        assert!(p >= 1, "port numbers are 1-based");
        Port(p)
    }

    /// The 1-based port number.
    pub fn number(self) -> u8 {
        self.0
    }

    /// The 0-based index into an adjacency row.
    pub fn index(self) -> usize {
        usize::from(self.0) - 1
    }

    /// Creates a port from a 0-based adjacency index.
    pub fn from_index(i: usize) -> Self {
        assert!(i < 255, "port index out of range");
        Port(i as u8 + 1)
    }
}

impl fmt::Debug for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The two-element color alphabet `{R, B}` of Definition 3.1.
///
/// `R` renders as *red* and `B` as *blue* in the paper's figures.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Color {
    /// Red.
    R,
    /// Blue.
    B,
}

impl Color {
    /// The other color.
    pub fn flip(self) -> Self {
        match self {
            Color::R => Color::B,
            Color::B => Color::R,
        }
    }
}

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Color::R => write!(f, "R"),
            Color::B => write!(f, "B"),
        }
    }
}

/// The composite per-node input label.
///
/// This is the union of every input alphabet used in the paper, each field
/// ranging over a finite set (so the whole record is a finite alphabet as
/// Definition 2.6 requires):
///
/// * `parent`, `left_child`, `right_child` — the (binary) tree labeling of
///   Definition 3.1.
/// * `color` — the input color `χ_in(v)` of a *colored* tree labeling
///   (Definition 3.1, used by LeafColoring and the THC problems).
/// * `left_nbr`, `right_nbr` — the lateral-neighbor labels `LN(v)`, `RN(v)`
///   of a *balanced* tree labeling (Definition 4.1).
/// * `level` — the explicit level input of Hybrid-THC (Definition 6.1),
///   a number in `[k+1]`.
/// * `bit` — the problem-selection bit `b_v` of HH-THC (Definition 6.4).
/// * `aux` — an auxiliary word used only by the non-LCL demonstration
///   problems (the bit-transfer gadget of Example 7.6); it is `None` in
///   every LCL instance.
///
/// Fields that a particular problem does not use are `None` and ignored by
/// that problem's checker.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct NodeLabel {
    /// Parent port `P(v)`.
    pub parent: Option<Port>,
    /// Left-child port `LC(v)`.
    pub left_child: Option<Port>,
    /// Right-child port `RC(v)`.
    pub right_child: Option<Port>,
    /// Left-neighbor port `LN(v)` (balanced tree labelings only).
    pub left_nbr: Option<Port>,
    /// Right-neighbor port `RN(v)` (balanced tree labelings only).
    pub right_nbr: Option<Port>,
    /// Input color `χ_in(v)` (colored labelings only).
    pub color: Option<Color>,
    /// Explicit level input (Hybrid-THC only).
    pub level: Option<u8>,
    /// Problem-selection bit (HH-THC only).
    pub bit: Option<bool>,
    /// Auxiliary payload for non-LCL demo problems.
    pub aux: Option<u64>,
}

impl NodeLabel {
    /// A label with every field unset (`⊥` everywhere).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builder-style setter for `P(v)`.
    pub fn with_parent(mut self, p: u8) -> Self {
        self.parent = Some(Port::new(p));
        self
    }

    /// Builder-style setter for `LC(v)`.
    pub fn with_left_child(mut self, p: u8) -> Self {
        self.left_child = Some(Port::new(p));
        self
    }

    /// Builder-style setter for `RC(v)`.
    pub fn with_right_child(mut self, p: u8) -> Self {
        self.right_child = Some(Port::new(p));
        self
    }

    /// Builder-style setter for `χ_in(v)`.
    pub fn with_color(mut self, c: Color) -> Self {
        self.color = Some(c);
        self
    }

    /// Builder-style setter for the explicit level.
    pub fn with_level(mut self, level: u8) -> Self {
        self.level = Some(level);
        self
    }

    /// Builder-style setter for the HH selection bit.
    pub fn with_bit(mut self, bit: bool) -> Self {
        self.bit = Some(bit);
        self
    }

    /// Folds every field of the label into `h`, each tagged for presence
    /// (so an unset field never aliases a set one). Part of the
    /// [`crate::Instance::instance_id`] computation: flipping any single
    /// field of any single label changes the instance identity.
    pub fn fold_content(&self, h: &mut vc_ident::IdHasher) {
        h.opt_word(self.parent.map(|p| u64::from(p.number())));
        h.opt_word(self.left_child.map(|p| u64::from(p.number())));
        h.opt_word(self.right_child.map(|p| u64::from(p.number())));
        h.opt_word(self.left_nbr.map(|p| u64::from(p.number())));
        h.opt_word(self.right_nbr.map(|p| u64::from(p.number())));
        h.opt_word(self.color.map(|c| match c {
            Color::R => 0,
            Color::B => 1,
        }));
        h.opt_word(self.level.map(u64::from));
        h.opt_word(self.bit.map(u64::from));
        h.opt_word(self.aux);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_roundtrip() {
        let p = Port::new(3);
        assert_eq!(p.number(), 3);
        assert_eq!(p.index(), 2);
        assert_eq!(Port::from_index(2), p);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn port_zero_panics() {
        let _ = Port::new(0);
    }

    #[test]
    fn color_flip_is_involution() {
        assert_eq!(Color::R.flip(), Color::B);
        assert_eq!(Color::B.flip().flip(), Color::B);
    }

    #[test]
    fn label_builder_sets_fields() {
        let l = NodeLabel::empty()
            .with_parent(1)
            .with_left_child(2)
            .with_right_child(3)
            .with_color(Color::R)
            .with_level(2)
            .with_bit(true);
        assert_eq!(l.parent, Some(Port::new(1)));
        assert_eq!(l.left_child, Some(Port::new(2)));
        assert_eq!(l.right_child, Some(Port::new(3)));
        assert_eq!(l.color, Some(Color::R));
        assert_eq!(l.level, Some(2));
        assert_eq!(l.bit, Some(true));
        assert_eq!(l.left_nbr, None);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", NodeLabel::empty()).is_empty());
        assert!(!format!("{:?}", Port::new(1)).is_empty());
    }
}
