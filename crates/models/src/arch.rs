//! The paper's six backbone architectures.
//!
//! ResNet-18/34 use the 4-stage basic-block layout of the ImageNet family
//! (block counts [2,2,2,2] / [3,4,6,3]) with a 3×3 stem (no stem pooling —
//! inputs here are small). ResNet-74/110/152 use the classic 3-stage CIFAR
//! layout `6n+2` with `n` = 12 / 18 / 25. MobileNetV2 stacks inverted
//! residual blocks. [`crate::plan`] defines each topology.

/// Backbone architecture identifiers (the paper's six networks). The
/// discriminants are the CQEN encoder-format tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Arch {
    /// 4-stage basic-block ResNet, blocks `[2,2,2,2]`.
    ResNet18 = 0,
    /// 4-stage basic-block ResNet, blocks `[3,4,6,3]`.
    ResNet34 = 1,
    /// 3-stage CIFAR ResNet, 6·12+2 layers.
    ResNet74 = 2,
    /// 3-stage CIFAR ResNet, 6·18+2 layers.
    ResNet110 = 3,
    /// 3-stage CIFAR ResNet, 6·25+2 layers.
    ResNet152 = 4,
    /// MobileNetV2 with inverted residual blocks.
    MobileNetV2 = 5,
}

impl Arch {
    /// All architectures evaluated in the paper, in table order.
    pub fn all() -> [Arch; 6] {
        [
            Arch::ResNet18,
            Arch::ResNet34,
            Arch::ResNet74,
            Arch::ResNet110,
            Arch::ResNet152,
            Arch::MobileNetV2,
        ]
    }

    /// Stable one-byte tag used by the CQEN encoder format.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The architecture a CQEN tag names, if any.
    pub fn from_tag(tag: u8) -> Option<Arch> {
        Arch::all().into_iter().find(|a| a.tag() == tag)
    }

    /// Human-readable name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Arch::ResNet18 => "ResNet-18",
            Arch::ResNet34 => "ResNet-34",
            Arch::ResNet74 => "ResNet-74",
            Arch::ResNet110 => "ResNet-110",
            Arch::ResNet152 => "ResNet-152",
            Arch::MobileNetV2 => "MobileNetV2",
        }
    }
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_names_match_paper() {
        assert_eq!(Arch::ResNet18.name(), "ResNet-18");
        assert_eq!(Arch::all().len(), 6);
        assert_eq!(Arch::MobileNetV2.to_string(), "MobileNetV2");
    }

    #[test]
    fn tags_round_trip_and_stay_pinned() {
        let tags: Vec<u8> = Arch::all().iter().map(|a| a.tag()).collect();
        assert_eq!(tags, [0, 1, 2, 3, 4, 5]);
        for arch in Arch::all() {
            assert_eq!(Arch::from_tag(arch.tag()), Some(arch));
        }
        assert_eq!(Arch::from_tag(6), None);
    }
}
