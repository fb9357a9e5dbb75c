//! # cq-detect
//!
//! Detection-transfer substrate for the paper's Table 3 (transfer of
//! ImageNet-pretrained encoders to Pascal VOC detection on a YOLO head).
//!
//! Pascal VOC and YOLOv4 are not available here; per the substitution
//! protocol (DESIGN.md §1) this crate provides:
//!
//! - a synthetic detection dataset (1–3 objects per image, box + class
//!   ground truth);
//! - a single-scale YOLO-style grid head on the pretrained backbone's
//!   spatial features;
//! - the full evaluation stack: IoU, NMS, per-class average precision,
//!   and the AP / AP50 / AP75 metrics of Table 3.
//!
//! The transfer protocol matches the paper's: the pretrained backbone is
//! fine-tuned together with the new head on the detection training set,
//! then evaluated on the held-out test set.

#![deny(missing_docs)]

mod boxes;
mod dataset;
mod head;
mod loss;
mod metrics;
mod train;

pub use boxes::{iou, nms, BBox};
pub use dataset::{DetDataset, DetectionConfig, GtBox};
pub use head::{decode_predictions, head_plan, Prediction};
pub use loss::yolo_loss;
pub use metrics::{evaluate_detections, DetMetrics};
pub use train::{train_detector, DetectorConfig};
