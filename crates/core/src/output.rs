//! Output alphabets of the constructed problems.

use std::fmt;
use vc_graph::{Color, Port};

/// The four-symbol output alphabet of the THC problems (Definition 5.5):
/// two colors, *decline* and *exempt*.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ThcColor {
    /// Red.
    R,
    /// Blue.
    B,
    /// Decline (`D`).
    D,
    /// Exempt (`X`).
    X,
}

impl ThcColor {
    /// Embeds an input color.
    pub fn from_color(c: Color) -> Self {
        match c {
            Color::R => ThcColor::R,
            Color::B => ThcColor::B,
        }
    }

    /// Whether the symbol is one of the two colors.
    pub fn is_color(self) -> bool {
        matches!(self, ThcColor::R | ThcColor::B)
    }

    /// Whether the symbol is in `{R, B, X}` — the "solved below" class that
    /// licenses exemption in conditions 4(b) and 5(a) of Definition 5.5.
    pub fn is_solved(self) -> bool {
        !matches!(self, ThcColor::D)
    }
}

impl fmt::Display for ThcColor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ThcColor::R => "R",
            ThcColor::B => "B",
            ThcColor::D => "D",
            ThcColor::X => "X",
        };
        write!(f, "{s}")
    }
}

/// The `{B, U}` flag of BalancedTree outputs (Definition 4.3): *balanced*
/// or *unbalanced*.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BtFlag {
    /// The subtree rooted here is balanced and fully compatible.
    Balanced,
    /// Something below is incompatible (or this node itself is).
    Unbalanced,
}

impl fmt::Display for BtFlag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BtFlag::Balanced => write!(f, "B"),
            BtFlag::Unbalanced => write!(f, "U"),
        }
    }
}

/// A BalancedTree output pair `(β(v), p(v)) ∈ {B, U} × P` (Definition 4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BtOutput {
    /// The balanced/unbalanced flag.
    pub flag: BtFlag,
    /// The port component (`⊥` as `None`).
    pub port: Option<Port>,
}

impl BtOutput {
    /// `(B, p)`.
    pub fn balanced(port: Option<Port>) -> Self {
        Self {
            flag: BtFlag::Balanced,
            port,
        }
    }

    /// `(U, p)`.
    pub fn unbalanced(port: Option<Port>) -> Self {
        Self {
            flag: BtFlag::Unbalanced,
            port,
        }
    }
}

impl fmt::Display for BtOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.port {
            Some(p) => write!(f, "({}, {})", self.flag, p),
            None => write!(f, "({}, ⊥)", self.flag),
        }
    }
}

/// The output alphabet of Hybrid-THC and HH-THC (Definitions 6.1 and 6.4):
/// either a BalancedTree pair or a THC symbol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HybridOutput {
    /// A BalancedTree output (level-1 nodes).
    Pair(BtOutput),
    /// A THC symbol (levels ≥ 2, or declined level-1 components).
    Sym(ThcColor),
}

impl HybridOutput {
    /// The THC symbol, if this is a symbol output.
    pub fn sym(self) -> Option<ThcColor> {
        match self {
            HybridOutput::Sym(c) => Some(c),
            HybridOutput::Pair(_) => None,
        }
    }

    /// Whether this output licenses exemption of a level-2 parent
    /// (Definition 6.1: `χ_out(RC(v)) ∈ {B, U}`, i.e. the BalancedTree
    /// instance below was solved rather than declined).
    pub fn is_solved_pair(self) -> bool {
        matches!(self, HybridOutput::Pair(_))
    }
}

impl From<ThcColor> for HybridOutput {
    fn from(c: ThcColor) -> Self {
        HybridOutput::Sym(c)
    }
}

/// An output the `RecursiveHTHC` memo packs into 16 bits of a node's
/// solver-scratch word; `unpack` inverts `pack`.
pub(crate) trait MemoCode {
    fn pack(self) -> u16;
    fn unpack(code: u16) -> Self;
}

/// The index in `R, B, D, X`.
impl MemoCode for ThcColor {
    fn pack(self) -> u16 {
        self as u16
    }

    fn unpack(code: u16) -> Self {
        [ThcColor::R, ThcColor::B, ThcColor::D, ThcColor::X][usize::from(code & 3)]
    }
}

/// A symbol's code, or bit 2 for a pair, with bit 3 set for `U` and the
/// port number (0 for `⊥`) in bits 8–15.
impl MemoCode for HybridOutput {
    fn pack(self) -> u16 {
        match self {
            HybridOutput::Sym(c) => c.pack(),
            HybridOutput::Pair(p) => {
                let port = u16::from(p.port.map_or(0, Port::number));
                4 | (u16::from(p.flag == BtFlag::Unbalanced) << 3) | (port << 8)
            }
        }
    }

    fn unpack(code: u16) -> Self {
        let port = Some((code >> 8) as u8).filter(|&p| p != 0).map(Port::new);
        match (code & 4, code & 8) {
            (0, _) => ThcColor::unpack(code).into(),
            (_, 0) => HybridOutput::Pair(BtOutput::balanced(port)),
            _ => HybridOutput::Pair(BtOutput::unbalanced(port)),
        }
    }
}

impl fmt::Display for HybridOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HybridOutput::Pair(p) => write!(f, "{p}"),
            HybridOutput::Sym(c) => write!(f, "{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_codes_round_trip() {
        let syms = [ThcColor::R, ThcColor::B, ThcColor::D, ThcColor::X];
        for c in syms {
            assert_eq!(ThcColor::unpack(c.pack()), c);
            assert_eq!(HybridOutput::unpack(HybridOutput::Sym(c).pack()), c.into());
        }
        for port in [None, Some(Port::new(1)), Some(Port::new(255))] {
            for out in [BtOutput::balanced(port), BtOutput::unbalanced(port)] {
                let pair = HybridOutput::Pair(out);
                assert_eq!(HybridOutput::unpack(pair.pack()), pair);
            }
        }
    }

    #[test]
    fn thc_predicates() {
        assert!(ThcColor::R.is_color());
        assert!(!ThcColor::X.is_color());
        assert!(ThcColor::X.is_solved());
        assert!(!ThcColor::D.is_solved());
        assert_eq!(ThcColor::from_color(Color::B), ThcColor::B);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ThcColor::D.to_string(), "D");
        assert_eq!(BtOutput::balanced(Some(Port::new(1))).to_string(), "(B, 1)");
        assert_eq!(BtOutput::unbalanced(None).to_string(), "(U, ⊥)");
        assert_eq!(
            HybridOutput::Pair(BtOutput::balanced(None)).to_string(),
            "(B, ⊥)"
        );
        assert_eq!(HybridOutput::Sym(ThcColor::X).to_string(), "X");
    }

    #[test]
    fn hybrid_classification() {
        assert!(HybridOutput::Pair(BtOutput::unbalanced(None)).is_solved_pair());
        assert!(!HybridOutput::Sym(ThcColor::R).is_solved_pair());
        assert_eq!(HybridOutput::Sym(ThcColor::D).sym(), Some(ThcColor::D));
        assert_eq!(HybridOutput::Pair(BtOutput::balanced(None)).sym(), None);
    }
}
