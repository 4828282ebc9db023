// Raster image model for the SaniVM's scrubbing transformations (§3.6):
// face detection and blurring, resolution reduction, noise injection to
// disrupt steganographic watermarks. Faces are generated with a skin-tone
// base plus high-contrast features; the detector looks for skin-dominant
// blocks *with* internal contrast, so blurring genuinely defeats it.
// Watermarks are real LSB steganography: noise or downscaling destroys
// them, metadata-only scrubbing does not — exactly the paper's layered
// "paranoia level" argument.
#ifndef SRC_SANITIZE_IMAGE_H_
#define SRC_SANITIZE_IMAGE_H_

#include <cstdint>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/prng.h"
#include "src/util/status.h"

namespace nymix {

struct Image {
  uint32_t width = 0;
  uint32_t height = 0;
  Bytes rgb;  // width * height * 3

  static Image Solid(uint32_t width, uint32_t height, uint8_t r, uint8_t g, uint8_t b);

  uint8_t* PixelAt(uint32_t x, uint32_t y) { return &rgb[(y * width + x) * 3]; }
  const uint8_t* PixelAt(uint32_t x, uint32_t y) const { return &rgb[(y * width + x) * 3]; }
};

struct FaceRegion {
  uint32_t x = 0;
  uint32_t y = 0;
  uint32_t width = 0;
  uint32_t height = 0;

  // nymlint:allow(dead-api): tests check the face detector found the planted face
  bool Overlaps(const FaceRegion& other) const;
};

// A synthetic "photo": textured background with face regions drawn in.
Image GeneratePhoto(uint32_t width, uint32_t height, uint64_t seed,
                    const std::vector<FaceRegion>& faces);

// Block-based detector: skin-dominant 8x8 blocks with eye-like internal
// contrast, clustered into bounding boxes.
std::vector<FaceRegion> DetectFaces(const Image& image);

// Box blur over a region (kills the detector's contrast requirement).
void BlurRegion(Image& image, const FaceRegion& region, int radius);

// Integer-factor downscale (paper: "reduce the resolution").
Image Downscale(const Image& image, uint32_t factor);

// Adds +-amplitude uniform noise per channel.
void AddNoise(Image& image, int amplitude, Prng& prng);

// --- LSB watermarking ---------------------------------------------------
// Embeds `payload` bits into the red channel's least-significant bits with
// 32 repetitions for redundancy. Returns error if the image is too small.
// nymlint:allow(dead-api): tests plant the watermark the scrubber must remove
Status EmbedWatermark(Image& image, uint32_t payload);

// Majority-decodes the watermark; returns NOT_FOUND if the checksum fails
// (i.e. the watermark was destroyed or never present).
// nymlint:allow(dead-api): tests check the scrubber removed the planted watermark
Result<uint32_t> DetectWatermark(const Image& image);

}  // namespace nymix

#endif  // SRC_SANITIZE_IMAGE_H_
