#include <gtest/gtest.h>

#include "src/sanitize/scrubber.h"

namespace nymix {
namespace {

// ---------------------------------------------------------------- EXIF

ExifData FullExif() {
  ExifData exif;
  exif.camera_make = "SamsungElectronics";
  exif.camera_model = "Galaxy S4";
  exif.body_serial_number = "RF1D63KW8BY";
  exif.datetime_original = "2014:05:01 21:14:03";
  exif.software = "CameraFirmware 4.4.2";
  exif.gps = GpsCoordinate{38.1234, 68.7742};  // a protest in Tyrannimen Square
  return exif;
}

TEST(ExifTest, RoundTripAllFields) {
  Bytes tiff = EncodeExif(FullExif());
  auto decoded = DecodeExif(tiff);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded->camera_make, "SamsungElectronics");
  EXPECT_EQ(*decoded->camera_model, "Galaxy S4");
  EXPECT_EQ(*decoded->body_serial_number, "RF1D63KW8BY");
  EXPECT_EQ(*decoded->datetime_original, "2014:05:01 21:14:03");
  EXPECT_EQ(*decoded->software, "CameraFirmware 4.4.2");
  ASSERT_TRUE(decoded->gps.has_value());
  EXPECT_NEAR(decoded->gps->latitude, 38.1234, 1e-4);
  EXPECT_NEAR(decoded->gps->longitude, 68.7742, 1e-4);
}

TEST(ExifTest, SouthWestCoordinates) {
  ExifData exif;
  exif.gps = GpsCoordinate{-33.8688, -151.2093 + 302.4186 * 0};  // Sydney-ish, west-negative
  exif.gps->longitude = -71.0;
  Bytes tiff = EncodeExif(exif);
  auto decoded = DecodeExif(tiff);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded->gps.has_value());
  EXPECT_NEAR(decoded->gps->latitude, -33.8688, 1e-4);
  EXPECT_NEAR(decoded->gps->longitude, -71.0, 1e-4);
}

TEST(ExifTest, PartialFields) {
  ExifData exif;
  exif.camera_model = "X";
  Bytes tiff = EncodeExif(exif);
  auto decoded = DecodeExif(tiff);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded->camera_model, "X");
  EXPECT_FALSE(decoded->gps.has_value());
  EXPECT_FALSE(decoded->body_serial_number.has_value());
}

TEST(ExifTest, RejectsGarbage) {
  EXPECT_FALSE(DecodeExif(BytesFromString("MM")).ok());
  EXPECT_FALSE(DecodeExif(BytesFromString("II*")).ok());
  Bytes tiff = EncodeExif(FullExif());
  tiff.resize(tiff.size() / 2);
  EXPECT_FALSE(DecodeExif(tiff).ok());
}

// ---------------------------------------------------------------- Image

TEST(ImageTest, GeneratedPhotoHasDetectableFaces) {
  std::vector<FaceRegion> truth = {{40, 40, 48, 48}, {140, 80, 56, 56}};
  Image photo = GeneratePhoto(256, 192, 7, truth);
  auto detected = DetectFaces(photo);
  ASSERT_GE(detected.size(), 1u);
  // Every ground-truth face overlaps at least one detection.
  for (const FaceRegion& face : truth) {
    bool found = false;
    for (const FaceRegion& region : detected) {
      found |= region.Overlaps(face);
    }
    EXPECT_TRUE(found) << "face at " << face.x << "," << face.y;
  }
}

TEST(ImageTest, PhotoWithoutFacesIsClean) {
  Image photo = GeneratePhoto(256, 192, 7, {});
  EXPECT_TRUE(DetectFaces(photo).empty());
}

TEST(ImageTest, BlurDefeatsFaceDetector) {
  std::vector<FaceRegion> truth = {{40, 40, 48, 48}};
  Image photo = GeneratePhoto(256, 192, 7, truth);
  ASSERT_FALSE(DetectFaces(photo).empty());
  for (const FaceRegion& face : DetectFaces(photo)) {
    BlurRegion(photo, face, 6);
  }
  EXPECT_TRUE(DetectFaces(photo).empty());
}

TEST(ImageTest, DownscaleDimensions) {
  Image photo = GeneratePhoto(256, 192, 7, {});
  Image small = Downscale(photo, 4);
  EXPECT_EQ(small.width, 64u);
  EXPECT_EQ(small.height, 48u);
  EXPECT_EQ(small.rgb.size(), 64u * 48 * 3);
}

TEST(ImageTest, WatermarkRoundTrip) {
  Image photo = GeneratePhoto(256, 192, 7, {});
  ASSERT_TRUE(EmbedWatermark(photo, 0xdeadbeef).ok());
  auto payload = DetectWatermark(photo);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, 0xdeadbeefu);
}

TEST(ImageTest, NoFalseWatermarkOnCleanImage) {
  Image photo = GeneratePhoto(256, 192, 7, {});
  EXPECT_FALSE(DetectWatermark(photo).ok());
}

TEST(ImageTest, NoiseDestroysWatermark) {
  Image photo = GeneratePhoto(256, 192, 7, {});
  ASSERT_TRUE(EmbedWatermark(photo, 0x12345678).ok());
  Prng prng(3);
  AddNoise(photo, 3, prng);
  EXPECT_FALSE(DetectWatermark(photo).ok());
}

TEST(ImageTest, DownscaleDestroysWatermark) {
  Image photo = GeneratePhoto(512, 384, 7, {});
  ASSERT_TRUE(EmbedWatermark(photo, 0x9abcdef0).ok());
  Image small = Downscale(photo, 2);
  EXPECT_FALSE(DetectWatermark(small).ok());
}

TEST(ImageTest, WatermarkNeedsEnoughPixels) {
  Image tiny = Image::Solid(16, 16, 0, 0, 0);
  EXPECT_FALSE(EmbedWatermark(tiny, 1).ok());
}

// ---------------------------------------------------------------- JPEG

TEST(JpegTest, RoundTripWithExifAndComment) {
  JpegFile jpeg;
  jpeg.image = GeneratePhoto(64, 48, 1, {});
  jpeg.exif = FullExif();
  jpeg.comment = "uploaded from my phone";
  Bytes wire = EncodeJpeg(jpeg);
  EXPECT_TRUE(LooksLikeJpeg(wire));
  auto decoded = DecodeJpeg(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->image.rgb, jpeg.image.rgb);
  ASSERT_TRUE(decoded->exif.has_value());
  EXPECT_EQ(*decoded->exif->body_serial_number, "RF1D63KW8BY");
  ASSERT_TRUE(decoded->exif->gps.has_value());
  EXPECT_EQ(*decoded->comment, "uploaded from my phone");
}

TEST(JpegTest, ByteStuffingHandlesFfPixels) {
  JpegFile jpeg;
  jpeg.image = Image::Solid(8, 8, 0xFF, 0xFF, 0xFF);  // all-0xFF payload
  Bytes wire = EncodeJpeg(jpeg);
  auto decoded = DecodeJpeg(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->image.rgb, jpeg.image.rgb);
}

TEST(JpegTest, SkipsUnknownSegments) {
  // Hand-build a JPEG with an APP0/JFIF segment our encoder never writes;
  // the decoder must skip it and still find the scan data.
  JpegFile jpeg;
  jpeg.image = Image::Solid(4, 4, 10, 20, 30);
  Bytes wire = EncodeJpeg(jpeg);
  Bytes with_app0 = {0xFF, 0xD8, 0xFF, 0xE0, 0x00, 0x07, 'J', 'F', 'I', 'F', 0x00};
  with_app0.insert(with_app0.end(), wire.begin() + 2, wire.end());
  auto decoded = DecodeJpeg(with_app0);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->image.rgb, jpeg.image.rgb);
}

TEST(JpegTest, OnePixelImage) {
  JpegFile jpeg;
  jpeg.image = Image::Solid(1, 1, 255, 0, 127);
  auto decoded = DecodeJpeg(EncodeJpeg(jpeg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->image.width, 1u);
  EXPECT_EQ(decoded->image.rgb, (Bytes{255, 0, 127}));
}

TEST(JpegTest, RejectsCorruption) {
  EXPECT_FALSE(DecodeJpeg(BytesFromString("notjpeg")).ok());
  JpegFile jpeg;
  jpeg.image = GeneratePhoto(16, 16, 1, {});
  Bytes wire = EncodeJpeg(jpeg);
  Bytes truncated(wire.begin(), wire.end() - 4);
  EXPECT_FALSE(DecodeJpeg(truncated).ok());
}

// ---------------------------------------------------------------- PNG

TEST(PngTest, Crc32KnownVector) {
  // CRC32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32(BytesFromString("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32({}), 0u);
}

TEST(PngTest, RoundTripWithMetadata) {
  PngFile png;
  png.image = GeneratePhoto(32, 32, 2, {});
  png.text_entries["Author"] = "Bob D. Dissident";
  png.text_entries["Comment"] = "protest flyer";
  png.exif = FullExif();
  Bytes wire = EncodePng(png);
  EXPECT_TRUE(LooksLikePng(wire));
  auto decoded = DecodePng(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->image.rgb, png.image.rgb);
  EXPECT_EQ(decoded->text_entries.at("Author"), "Bob D. Dissident");
  ASSERT_TRUE(decoded->exif.has_value());
  EXPECT_NEAR(decoded->exif->gps->latitude, 38.1234, 1e-4);
}

TEST(PngTest, CrcDetectsCorruption) {
  PngFile png;
  png.image = GeneratePhoto(32, 32, 2, {});
  Bytes wire = EncodePng(png);
  wire[40] ^= 0x01;  // flip a bit inside a chunk
  EXPECT_FALSE(DecodePng(wire).ok());
}

TEST(PngTest, LaterDuplicateTextChunkWins) {
  PngFile png;
  png.image = GeneratePhoto(16, 16, 2, {});
  png.text_entries["Comment"] = "first";
  Bytes wire = EncodePng(png);
  // Decode-encode round trip with a modified comment keeps the map form.
  auto decoded = DecodePng(wire);
  ASSERT_TRUE(decoded.ok());
  decoded->text_entries["Comment"] = "second";
  auto again = DecodePng(EncodePng(*decoded));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->text_entries.at("Comment"), "second");
}

TEST(PngTest, EmptyImageRejectedOnDimensionMismatch) {
  PngFile png;
  png.image = GeneratePhoto(8, 8, 1, {});
  Bytes wire = EncodePng(png);
  // Corrupt IHDR width (and fix its CRC? no — CRC catches it first).
  wire[16] ^= 0x01;
  EXPECT_FALSE(DecodePng(wire).ok());
}

TEST(PngTest, RejectsTruncation) {
  PngFile png;
  png.image = GeneratePhoto(32, 32, 2, {});
  Bytes wire = EncodePng(png);
  wire.resize(wire.size() - 10);
  EXPECT_FALSE(DecodePng(wire).ok());
}

// ---------------------------------------------------------------- PDF

PdfFile ProtestPdf() {
  PdfFile pdf;
  pdf.info.title = "Meeting notes";
  pdf.info.author = "bob@tyrannistan-times.ty";
  pdf.info.creator = "LibreOffice Writer";
  pdf.info.producer = "LibreOffice 4.2";
  pdf.info.creation_date = "D:20140501211403";
  pdf.pages = {"Protest at the square, 9pm.", "Bring candles."};
  pdf.hidden_objects = {"tracked-change: originally said 8pm, author bob"};
  return pdf;
}

TEST(PdfTest, RoundTrip) {
  Bytes wire = EncodePdf(ProtestPdf());
  EXPECT_TRUE(LooksLikePdf(wire));
  auto decoded = DecodePdf(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded->info.author, "bob@tyrannistan-times.ty");
  ASSERT_EQ(decoded->pages.size(), 2u);
  EXPECT_EQ(decoded->pages[0], "Protest at the square, 9pm.");
  ASSERT_EQ(decoded->hidden_objects.size(), 1u);
}

TEST(PdfTest, NoInfoDictionary) {
  PdfFile pdf;
  pdf.pages = {"just text"};
  auto decoded = DecodePdf(EncodePdf(pdf));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->info.Empty());
  EXPECT_TRUE(decoded->hidden_objects.empty());
}

TEST(PdfTest, ParenEscaping) {
  PdfFile pdf;
  pdf.info.title = "notes (draft)";
  pdf.pages = {"x"};
  auto decoded = DecodePdf(EncodePdf(pdf));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded->info.title, "notes [draft]");
}

TEST(PdfTest, RasterizeDropsEverythingButVisibleText) {
  PdfFile pdf = ProtestPdf();
  auto pages = RasterizePdf(pdf);
  ASSERT_EQ(pages.size(), 2u);
  // Identical visible text with different hidden payloads yields identical
  // rasters: nothing but the rendering survives.
  PdfFile other = pdf;
  other.hidden_objects = {"completely different secret"};
  other.info.author = "someone else";
  auto other_pages = RasterizePdf(other);
  ASSERT_EQ(other_pages.size(), 2u);
  EXPECT_EQ(pages[0].rgb, other_pages[0].rgb);
  // Different visible text yields a different raster.
  PdfFile changed = pdf;
  changed.pages[0] = "Protest at the square, 8pm.";
  EXPECT_NE(RasterizePdf(changed)[0].rgb, pages[0].rgb);
}

// ---------------------------------------------------------------- DOC

DocFile MemoDoc() {
  DocFile doc;
  doc.properties.creator = "Bob Dissident";
  doc.properties.company = "Tyrannistan Times";
  doc.properties.last_modified_by = "bob";
  doc.properties.revision = 17;
  doc.properties.editing_minutes = 340;
  doc.paragraphs = {"Glorious Leader opens new dam.", "Attendance mandatory."};
  doc.hidden_runs = {"deleted: this is all propaganda"};
  return doc;
}

TEST(DocTest, RoundTrip) {
  Bytes wire = EncodeDoc(MemoDoc());
  EXPECT_TRUE(LooksLikeDoc(wire));
  auto decoded = DecodeDoc(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded->properties.creator, "Bob Dissident");
  EXPECT_EQ(decoded->properties.revision, 17u);
  ASSERT_EQ(decoded->paragraphs.size(), 2u);
  ASSERT_EQ(decoded->hidden_runs.size(), 1u);
}

TEST(PdfTest, MissingTrailerTolerated) {
  // A PDF without a trailer (no /Info) still yields its pages.
  PdfFile pdf;
  pdf.pages = {"content"};
  Bytes wire = EncodePdf(pdf);
  std::string text = StringFromBytes(wire);
  size_t trailer = text.find("trailer");
  text = text.substr(0, trailer) + "%%EOF\n";
  auto decoded = DecodePdf(BytesFromString(text));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->pages.size(), 1u);
  EXPECT_TRUE(decoded->info.Empty());
}

// The /Info object number comes from untrusted upload bytes: a digit run
// that overflows, or no digits at all, is a decode error, not UB.
TEST(PdfTest, MalformedInfoObjectNumberRejected) {
  const std::string wire = StringFromBytes(EncodePdf(ProtestPdf()));
  const size_t ref = wire.find("/Info ");
  ASSERT_NE(ref, std::string::npos);
  const size_t number_end = wire.find(" 0 R", ref);
  for (const char* bad : {"99999999999999999999", "x"}) {
    std::string text = wire.substr(0, ref + 6) + bad + wire.substr(number_end);
    auto decoded = DecodePdf(BytesFromString(text));
    ASSERT_FALSE(decoded.ok()) << bad;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << bad;
  }
}

TEST(PdfTest, MissingEofRejected) {
  Bytes wire = EncodePdf(ProtestPdf());
  std::string text = StringFromBytes(wire);
  text = text.substr(0, text.find("%%EOF"));
  EXPECT_FALSE(DecodePdf(BytesFromString(text)).ok());
}

TEST(DocTest, EmptyDocumentRoundTrips) {
  DocFile doc;
  auto decoded = DecodeDoc(EncodeDoc(doc));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->paragraphs.empty());
  EXPECT_TRUE(decoded->properties.Empty());
  EXPECT_TRUE(RasterizeDoc(*decoded).empty());
}

TEST(DocTest, RejectsCorruption) {
  Bytes wire = EncodeDoc(MemoDoc());
  wire.resize(wire.size() - 3);
  EXPECT_FALSE(DecodeDoc(wire).ok());
  EXPECT_FALSE(DecodeDoc(BytesFromString("XXXX")).ok());
}

// ---------------------------------------------------------------- Scrubber

TEST(ScrubberTest, DetectsFileKinds) {
  JpegFile jpeg;
  jpeg.image = GeneratePhoto(16, 16, 1, {});
  EXPECT_EQ(DetectFileKind(EncodeJpeg(jpeg)), FileKind::kJpeg);
  PngFile png;
  png.image = GeneratePhoto(16, 16, 1, {});
  EXPECT_EQ(DetectFileKind(EncodePng(png)), FileKind::kPng);
  EXPECT_EQ(DetectFileKind(EncodePdf(ProtestPdf())), FileKind::kPdf);
  EXPECT_EQ(DetectFileKind(EncodeDoc(MemoDoc())), FileKind::kDoc);
  EXPECT_EQ(DetectFileKind(BytesFromString("plain text")), FileKind::kUnknown);
}

TEST(ScrubberTest, AnalyzeFindsJpegRisks) {
  JpegFile jpeg;
  jpeg.image = GeneratePhoto(256, 192, 7, {{40, 40, 48, 48}});
  jpeg.exif = FullExif();
  jpeg.comment = "with love from Bob";
  auto report = AnalyzeFile(EncodeJpeg(jpeg));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Has(RiskType::kGpsLocation));
  EXPECT_TRUE(report->Has(RiskType::kDeviceSerial));
  EXPECT_TRUE(report->Has(RiskType::kCameraModel));
  EXPECT_TRUE(report->Has(RiskType::kTimestamp));
  EXPECT_TRUE(report->Has(RiskType::kComment));
  EXPECT_TRUE(report->Has(RiskType::kFace));
  EXPECT_FALSE(report->clean());
  EXPECT_NE(report->Summary().find("gps-location"), std::string::npos);
}

TEST(ScrubberTest, MetadataOnlyScrubRemovesExifButNotFaces) {
  JpegFile jpeg;
  jpeg.image = GeneratePhoto(256, 192, 7, {{40, 40, 48, 48}});
  jpeg.exif = FullExif();
  Prng prng(1);
  ScrubOptions options;
  options.level = ParanoiaLevel::kMetadataOnly;
  auto result = ScrubFile(EncodeJpeg(jpeg), options, prng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->before.Has(RiskType::kGpsLocation));
  EXPECT_FALSE(result->after.Has(RiskType::kGpsLocation));
  EXPECT_FALSE(result->after.Has(RiskType::kDeviceSerial));
  EXPECT_TRUE(result->after.Has(RiskType::kFace));  // faces untouched
  // Pixels preserved exactly.
  auto scrubbed = DecodeJpeg(result->data);
  ASSERT_TRUE(scrubbed.ok());
  EXPECT_EQ(scrubbed->image.rgb, jpeg.image.rgb);
}

TEST(ScrubberTest, VisualScrubRemovesFacesAndWatermark) {
  JpegFile jpeg;
  jpeg.image = GeneratePhoto(256, 192, 7, {{40, 40, 48, 48}});
  ASSERT_TRUE(EmbedWatermark(jpeg.image, 0xfeedface).ok());
  jpeg.exif = FullExif();
  Prng prng(1);
  ScrubOptions options;
  options.level = ParanoiaLevel::kMetadataAndVisual;
  auto result = ScrubFile(EncodeJpeg(jpeg), options, prng);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->after.Has(RiskType::kFace));
  EXPECT_FALSE(result->after.Has(RiskType::kGpsLocation));
  auto scrubbed = DecodeJpeg(result->data);
  ASSERT_TRUE(scrubbed.ok());
  EXPECT_FALSE(DetectWatermark(scrubbed->image).ok());
  EXPECT_GE(result->actions.size(), 3u);
}

TEST(ScrubberTest, PngScrubClearsTextChunks) {
  PngFile png;
  png.image = GeneratePhoto(64, 64, 3, {});
  png.text_entries["Author"] = "alice";
  png.exif = FullExif();
  Prng prng(1);
  auto result = ScrubFile(EncodePng(png), ScrubOptions{}, prng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->before.Has(RiskType::kAuthorIdentity));
  EXPECT_TRUE(result->after.clean());
}

TEST(ScrubberTest, PdfMetadataScrubLeavesHiddenObjects) {
  Prng prng(1);
  ScrubOptions options;
  options.level = ParanoiaLevel::kMetadataOnly;
  auto result = ScrubFile(EncodePdf(ProtestPdf()), options, prng);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->after.Has(RiskType::kAuthorIdentity));
  // The documented gap: hidden objects survive metadata-only scrubbing.
  EXPECT_TRUE(result->after.Has(RiskType::kHiddenContent));
}

TEST(ScrubberTest, PdfRasterizeRemovesHiddenObjects) {
  Prng prng(1);
  ScrubOptions options;
  options.level = ParanoiaLevel::kRasterize;
  auto result = ScrubFile(EncodePdf(ProtestPdf()), options, prng);
  ASSERT_TRUE(result.ok());
  auto pages = UnbundleRasterPages(result->data);
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(pages->size(), 2u);
  // The bundle contains no trace of author or hidden payload bytes.
  std::string rendered = StringFromBytes(result->data);
  EXPECT_EQ(rendered.find("bob@tyrannistan-times.ty"), std::string::npos);
  EXPECT_EQ(rendered.find("tracked-change"), std::string::npos);
}

TEST(ScrubberTest, DocScrubAndRasterize) {
  Prng prng(1);
  auto metadata_result = ScrubFile(EncodeDoc(MemoDoc()), ScrubOptions{}, prng);
  ASSERT_TRUE(metadata_result.ok());
  EXPECT_TRUE(metadata_result->after.clean());
  auto decoded = DecodeDoc(metadata_result->data);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->hidden_runs.empty());
  EXPECT_EQ(decoded->paragraphs.size(), 2u);  // visible text preserved

  ScrubOptions raster;
  raster.level = ParanoiaLevel::kRasterize;
  auto raster_result = ScrubFile(EncodeDoc(MemoDoc()), raster, prng);
  ASSERT_TRUE(raster_result.ok());
  auto pages = UnbundleRasterPages(raster_result->data);
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(pages->size(), 2u);
}

TEST(ScrubberTest, UnknownFilesRejected) {
  Prng prng(1);
  EXPECT_FALSE(AnalyzeFile(BytesFromString("mystery")).ok());
  EXPECT_FALSE(ScrubFile(BytesFromString("mystery"), ScrubOptions{}, prng).ok());
}

TEST(ScrubberTest, RasterBundleRoundTrip) {
  std::vector<Image> pages = {GeneratePhoto(32, 16, 1, {}), GeneratePhoto(16, 32, 2, {})};
  Bytes bundle = BundleRasterPages(pages);
  auto restored = UnbundleRasterPages(bundle);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), 2u);
  EXPECT_EQ((*restored)[0].rgb, pages[0].rgb);
  EXPECT_EQ((*restored)[1].width, 16u);
  EXPECT_FALSE(UnbundleRasterPages(BytesFromString("junk")).ok());
}

}  // namespace
}  // namespace nymix
